"""Far-field multislit intensity patterns for partially coherent beams.

The screen intensity is

    I(x) = sum_i I_i(x)
         + sum_{i != j} sqrt(I_i(x) I_j(x)) |g_ij| cos(omega*tau_ij(x) + phi_ij)

with per-slit on-screen intensities I_i(x) = I_i * envelope(x), pair delays
tau_ij fixed by the slit geometry, and phi_ij = alpha_i - alpha_j + arg(g_ij)
combining the intrinsic slit phases with the coherence phases.  Internally
the double sum is evaluated as the Hermitian quadratic form u(x) A u(x)^H,
read from A's diagonal and lower triangle, in a form that is real by
construction.  The small-angle model sums it as a trigonometric polynomial
whose coefficients are A's lower diagonal sums: one libm cos/sin pair per
sample gives the first harmonic, and each higher one follows from the
previous by multiplies and adds; rounding dust below zero is clipped.  The
exact phase model factors A = F F^H by pivoted Cholesky and sums
sum_m |sum_i F_im u_i(x)|^2, which is nonnegative and costs O(r n) per
sample for a rank-r A; each phasor u_i comes from slit i's path excess over
the wavelength, reduced to one cycle, so libm takes cos and sin of angles in
[-pi, pi].  Only elementwise IEEE-754 operations in a fixed order (sqrt and
rint among them) and the platform libm's cos and sin enter the form, so its
bits are reproducible.
screen_pattern is the one evaluator of that form: the analytic pattern
passes A from mutual_intensity, the Monte-Carlo oracle its ensemble
covariance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from duality_lab.coherence import CoherenceMatrix, _check_count, _check_real, _freeze, _set_diagonal

SPEED_OF_LIGHT = 299_792_458.0  # m/s

WINDOW_FRINGES = 4.0  # half-width of the over_fringes window, in fringe widths
PHASE_MODELS = ("small_angle", "exact")
ENVELOPES = ("uniform", "gaussian")
# the pattern CSV's columns and its headers for x in metres and in fringe
# widths: write_pattern_csv writes one, analysis.load_pattern_csv reads it
_CSV_COLUMNS = ("x", "total", "incoherent")
_CSV_HEADERS = ("x,total,incoherent", "x_w,total,incoherent")
# rows per write of write_pattern_csv: every bundled scenario is one block,
# and the text held at once stays bounded at any grid size
_CSV_BLOCK_ROWS = 4096

# Bound on n * sum_i I_i.  For a PSD matrix A with trace T, |A_ij| <=
# sqrt(A_ii A_jj).  Small angle: P = sum_{i>j} sqrt(A_ii A_jj) <= (n - 1) T / 2
# (Cauchy-Schwarz).  The phasor z_k of _intensity_samples has
# |z_k| <= 1 + O(k u) with u = eps/2 (the bound in its comment), so its
# parts stay below 2, each update adds at most 2 sqrt(2) |c_k| (1 + O(n u)),
# sum_k |c_k| <= P, and every partial sum and product stays below
# T + sqrt(2) (n - 1) T (1 + O(n u)) <= sqrt(2) n T for any n with n^2 u
# far below 1.  Exact model: every entry and product in the factor
# A = F F^H stays below T, |s_m| <= sum_i |F_im|, each partial part of s_m
# below sqrt(2) sum_i |F_im|, and q = sum_m |s_m|^2 <= n sum_im |F_im|^2
# = n T (Cauchy-Schwarz), so every square stays below 2 n T.  n T <= max / 2
# keeps the kernel's largest intermediate below the largest float.  The
# analytic A has T = sum_i I_i.  An ensemble covariance can have a larger
# trace, so the Monte-Carlo pattern rests on test_finite_at_the_intensity_bound
# instead.
MAX_N_TIMES_SUM = sys.float_info.max / 2.0


class ZeroTotalIntensity(ValueError):
    """All slit intensities are zero."""


def intensity_vector(values) -> np.ndarray:
    """Slit intensities as a 1-D float array of n >= 2 entries, none
    negative, with a positive sum of at most MAX_N_TIMES_SUM / n (so every
    entry is finite too)."""
    inten = np.asarray(values, dtype=float)
    if inten.ndim != 1 or inten.size < 2:
        raise ValueError(f"need at least 2 slit intensities in 1-D, got shape {inten.shape}")
    if np.any(inten < 0.0):
        raise ValueError("slit intensities must be nonnegative")
    with np.errstate(over="ignore"):
        total = inten.sum()
    limit = MAX_N_TIMES_SUM / inten.size
    if not 0.0 < total <= limit:
        error = ZeroTotalIntensity if total == 0.0 else ValueError
        raise error(
            f"sum of slit intensities must be positive and finite, at most {limit!r} "
            f"for {inten.size} slits, got {total}"
        )
    return inten


@dataclass(frozen=True)
class SlitArray:
    """Equally spaced slits with per-slit on-screen intensities and phases.

    intensities[i] is the intensity at the screen if only slit i were open
    (propagation factors are absorbed into it); phases are the intrinsic
    per-slit phases alpha_i in radians; spacing is the centre-to-centre slit
    distance in metres, an int, float or numpy real number (a bool or string
    is refused with a ValueError naming it).
    """

    intensities: np.ndarray
    spacing: float
    phases: np.ndarray = field(default=None)

    def __post_init__(self):
        inten = intensity_vector(np.array(self.intensities, dtype=float))
        _check_real("spacing", self.spacing)
        if not 0.0 < self.spacing < math.inf:
            raise ValueError(f"slit spacing must be positive and finite, got {self.spacing}")
        ph = self.phases
        ph = np.zeros(inten.size) if ph is None else np.array(ph, dtype=float)
        if ph.shape != inten.shape:
            raise ValueError("phases must match the intensity vector length")
        if not np.all(np.isfinite(ph)):
            raise ValueError("slit phases must be finite")
        _freeze(self, intensities=inten, phases=ph)

    @property
    def n(self) -> int:
        return self.intensities.size


@dataclass(frozen=True)
class ScreenGeometry:
    """Observation screen: wavelength, slit-to-screen distance, sampled window.

    samples, the grid size, is an int or numpy integer of at least 2;
    wavelength, distance, x_min, x_max and sigma are ints, floats or numpy
    real numbers, and a bool or string is refused with a ValueError naming
    the field.
    envelope is the common per-slit diffraction profile multiplying every
    I_i: "uniform" (exact analytic checks), which refuses a sigma, or
    "gaussian" with scale sigma in metres.  phase_model selects the
    pair-delay computation: "small_angle" (linear Fraunhofer phase, the
    default) or "exact" path lengths.
    """

    wavelength: float
    distance: float
    x_min: float
    x_max: float
    samples: int = 4096
    envelope: str = "uniform"
    sigma: float | None = None
    phase_model: str = "small_angle"

    def __post_init__(self):
        for name in ("wavelength", "distance", "x_min", "x_max", "sigma"):
            value = getattr(self, name)
            if value is not None:
                _check_real(name, value)
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
        if not self.wavelength > 0.0:
            raise ValueError("wavelength must be positive")
        if not self.distance > 0.0:
            raise ValueError("slit-to-screen distance must be positive")
        if not self.x_min < self.x_max:
            raise ValueError("screen window must satisfy x_min < x_max")
        _check_count("samples", self.samples)
        if self.samples < 2:
            raise ValueError("need at least 2 grid samples")
        if self.envelope not in ENVELOPES:
            raise ValueError(f"unknown envelope {self.envelope!r}")
        if self.envelope == "gaussian" and not (self.sigma or 0.0) > 0.0:
            raise ValueError("gaussian envelope needs sigma > 0")
        if self.envelope == "uniform" and self.sigma is not None:
            raise ValueError(f"sigma applies to the gaussian envelope only, got sigma={self.sigma!r}")
        if self.phase_model not in PHASE_MODELS:
            raise ValueError(f"unknown phase model {self.phase_model!r}")

    @property
    def omega(self) -> float:
        """Angular frequency 2*pi*c/wavelength."""
        return 2.0 * np.pi * SPEED_OF_LIGHT / self.wavelength

    def grid(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.samples)

    def envelope_values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.envelope == "uniform":
            return np.ones_like(x)
        # libm's exp of every sample, in one numpy loop: complex exp gives
        # exp(r) cos(+0) + i exp(r) sin(+0) for r + 0i, and C99 Annex F makes
        # cos(+0) = 1 and sin(+0) = +0 exact, so the real part is the
        # platform exp that math.exp calls, for every r <= 0, -inf included.
        # numpy's float exp is not used: its SIMD loop can differ in the
        # last bit.  Underflow to a subnormal or 0 is the value wanted, as
        # math.exp gives it, so it is not signalled.
        arg = -(x * x) / (2.0 * self.sigma * self.sigma)
        with np.errstate(under="ignore"):
            return np.array(np.exp(arg + 0j).real)

    @classmethod
    def over_fringes(
        cls, slits: SlitArray, wavelength: float, distance: float, **screen
    ) -> ScreenGeometry:
        """Window spanning +-WINDOW_FRINGES fringe widths around the axis;
        `screen` holds any of the other fields by name, each defaulting as
        in the constructor."""
        w = _fringe_width(wavelength, distance, slits.spacing)
        return cls(
            wavelength=wavelength,
            distance=distance,
            x_min=-WINDOW_FRINGES * w,
            x_max=WINDOW_FRINGES * w,
            **screen,
        )


@dataclass(frozen=True)
class InterferencePattern:
    """Sampled total intensity with its incoherent reference pattern, the
    slit count and the spacing of adjacent primary maxima in the grid's unit.
    The three columns must be 1-D and of one length."""

    grid: np.ndarray
    total: np.ndarray
    incoherent: np.ndarray
    n: int
    fringe_width: float

    def __post_init__(self):
        grid, total, inc = (np.array(c, float) for c in (self.grid, self.total, self.incoherent))
        if grid.ndim != 1 or not grid.shape == total.shape == inc.shape:
            shapes = (grid.shape, total.shape, inc.shape)
            raise ValueError(f"pattern columns must be 1-D and of one length, got shapes {shapes}")
        _freeze(self, grid=grid, total=total, incoherent=inc)

    def in_fringe_widths(self) -> InterferencePattern:
        """This pattern with x in fringe widths: grid / fringe_width, width 1."""
        return replace(self, grid=self.grid / self.fringe_width, fringe_width=1.0)


def fringe_width(geometry: ScreenGeometry, slits: SlitArray) -> float:
    """Primary-maximum spacing w = wavelength * distance / slit spacing."""
    return _fringe_width(geometry.wavelength, geometry.distance, slits.spacing)


def _fringe_width(wavelength: float, distance: float, spacing: float) -> float:
    return wavelength * distance / spacing


def slit_positions(n: int, spacing: float) -> np.ndarray:
    """Transverse slit positions centred on the optical axis.

    Positions decrease with slit index so that the exact path-length delays
    reduce to the small-angle convention tau_ij ~ (i-j)*spacing*x/(L*c).
    """
    return ((n - 1) / 2.0 - np.arange(n)) * spacing


def delay(geometry: ScreenGeometry, slits: SlitArray, i: int, j: int, x: float) -> float:
    """Relative propagation delay tau_ij = t_i - t_j at screen position x, seconds.

    The exact model takes the difference of the absolute paths
    hypot(distance, x - pos), each rounded to about eps * distance, which
    the pattern kernel never forms: this scalar route stays independent of
    the kernel's path excess, for double-sum references to check it against.
    """
    n = slits.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"slit indices ({i}, {j}) out of range for n={n}")
    if geometry.phase_model == "small_angle":
        return (i - j) * slits.spacing * x / (geometry.distance * SPEED_OF_LIGHT)
    # the two entries of slit_positions(n, spacing), formed the same way
    pos_i = ((n - 1) / 2.0 - i) * slits.spacing
    pos_j = ((n - 1) / 2.0 - j) * slits.spacing
    path_i = float(np.hypot(geometry.distance, x - pos_i))
    path_j = float(np.hypot(geometry.distance, x - pos_j))
    return (path_i - path_j) / SPEED_OF_LIGHT


def mutual_intensity(slits: SlitArray, coh: CoherenceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the Hermitian PSD mutual-intensity matrix
    A_ij = sqrt(I_i) sqrt(I_j) g_ij exp(i(alpha_i - alpha_j)) of the slits'
    intensities and phases: the pattern is u A u* times the envelope, and
    A = <E_i E_j*> is what the oracle samples.  Built from real ufuncs only:
    numpy's complex multiply fuses multiply-adds on some CPUs, which would
    tie A to the build.  Im A_ii is exactly 0, as g_ii = 1; Re A_ii is set
    to I_i, not sqrt(I_i)^2.  When every phase difference is +-0 (equal
    slit phases), cos is taken as ones and sin as the differences
    themselves, with no libm call: C99 Annex F makes cos(+-0) = 1 and
    sin(+-0) = +-0 exact, so A keeps its bits.
    """
    if coh.n != slits.n:
        raise ValueError(f"coherence matrix size {coh.n} does not match slit count {slits.n}")
    inten, phases, g = slits.intensities, slits.phases, coh.entries
    amps = np.sqrt(inten)
    weight = amps[:, None] * amps[None, :]
    dphi = phases[:, None] - phases[None, :]
    if dphi.any():
        cos, sin = np.cos(dphi), np.sin(dphi)
    else:
        cos, sin = np.ones_like(dphi), dphi
    a_re = weight * (g.real * cos - g.imag * sin)
    a_im = weight * (g.real * sin + g.imag * cos)
    _set_diagonal(a_re, inten)
    return a_re, a_im


def pivoted_cholesky(
    a_re: np.ndarray, a_im: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor the Hermitian PSD matrix A = a_re + i a_im, read from its
    diagonal and lower triangle, as A ~ F F^H.

    Returns perm and the real and imaginary parts of F, an n x r matrix with
    its rows in slit order: perm lists the pivot slits, then the rest, and
    F[perm] is lower trapezoidal with a real positive diagonal.  Outer-product
    Cholesky with complete pivoting (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 10): step k takes the first largest
    remaining diagonal entry, in the order of perm[k:], as pivot and stops,
    with r = k, once that entry is at most tol = n * eps * max(diag A).  Only
    perm is permuted.  Every step is elementwise real ufuncs in a fixed
    order, so F's bits depend on IEEE-754 arithmetic alone.

    Each kept entry carries the rounding of at most 2r + 2 steps, so
    |A - F F^H|_ij <= gamma_{2r+2} sum_k |F_ik| |F_jk| outside the dropped
    residual R, with gamma_m = m eps/2 / (1 - m eps/2).  R has diagonal at
    most tol; as a PSD matrix it changes the form u A u^H by at most
    n trace(R) <= n (n - r) tol for any u with |u_i| = 1.

    A real A (every a_im entry +-0, as for equal slit phases and a real g)
    takes the real path: Im F is returned as +0 and each step forms only
    Re c and R_re -= Re c Re c^T.  The three skipped updates and the Im
    column divisions would see only +-0 imaginary parts, so they would
    subtract signed zeros from R_re (+0 on its diagonal, c_i^2 being +0),
    which leaves every diagonal entry and every nonzero entry as it is.  So
    perm and the values of Re F keep their bits; only the sign of a zero
    entry of Re F (as in a dark slit's row) or of Im F can differ from the
    four-update loop's.  Every reader of F adds its entries, times finite
    factors, into accumulators that start at +0 (the exact kernel's s_m,
    coherence._product), which a signed zero term cannot change, so no
    pattern, field or report moves.
    """
    n = a_re.shape[0]
    lower = np.tri(n, dtype=bool)
    r_re = np.where(lower, a_re, a_re.T)
    complex_a = bool(a_im.any())
    r_im = np.where(lower, a_im, -a_im.T) if complex_a else None
    f_re, f_im = np.zeros((2, n, n))
    perm = np.arange(n)
    # max and argmax only compare, so no summation order enters
    tol = n * np.finfo(float).eps * np.max(a_re.diagonal())
    rank = n
    for k in range(n):
        j = k + int(np.argmax(r_re.diagonal()[perm[k:]]))
        p = perm[j]
        if not r_re[p, p] > tol:
            rank = k
            break
        perm[j], perm[k] = perm[k], p
        pivot = math.sqrt(r_re[p, p])
        rest = perm[k + 1 :]
        col_re, col_im = f_re[:, k], f_im[:, k]
        col_re[rest] = r_re[rest, p] / pivot
        col_re[p] = pivot
        # R -= c c^H; pivoted rows and columns of R are never read again
        r_re -= np.multiply.outer(col_re, col_re)
        if complex_a:
            col_im[rest] = r_im[rest, p] / pivot
            r_re -= np.multiply.outer(col_im, col_im)
            r_im -= np.multiply.outer(col_im, col_re)
            r_im += np.multiply.outer(col_re, col_im)
    return perm, f_re[:, :rank], f_im[:, :rank]


def _intensity_samples(
    slits: SlitArray, geometry: ScreenGeometry, x: np.ndarray, a_re: np.ndarray, a_im: np.ndarray
) -> np.ndarray:
    # The Hermitian form q(x) = sum_ij u_i(x) A_ij conj(u_j(x)) is evaluated
    # in a form that is real by construction, using only correctly rounded
    # scalar sums and elementwise real ufuncs applied in a fixed order (no
    # einsum, BLAS or multi-element numpy reduction).  Each sample's bits then
    # depend only on IEEE-754 arithmetic and on the platform libm's cos/sin,
    # which is what makes seeded outputs byte-stable.
    n = slits.n
    if geometry.phase_model == "small_angle":
        # u_i(x) = exp(i*i*theta) with theta = scale*x, so q is the
        # trigonometric polynomial c_0 + 2 sum_{k>=1} Re(c_k z_k), with c_0
        # the trace, c_k the sum of the k-th lower diagonal A_{j+k,j} and
        # z_k = exp(i*k*theta).  One libm pair gives z_1 = (cos theta,
        # sin theta); z_k = z_{k-1} z_1 follows in real ufuncs in a fixed
        # order, Re = Re*cos - Im*sin and Im = Re*sin + Im*cos, as numpy's
        # complex multiply may fuse multiply-adds.
        # Rounding growth: with cos/sin within lam*u of the true values
        # (u = eps/2), z_1 is within (|theta| + sqrt(2) lam) u of
        # exp(i*theta) for the real theta = scale*x, and each product adds a
        # relative error of at most sqrt(2) gamma_2 (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2nd ed., Lemma 3.5), so to
        # first order |z_k - exp(i*k*theta)| <= k (|theta| + sqrt(2) (2 + lam)) u
        # and |z_k| <= 1 + O(k u).
        # A real A (every Im A entry +-0, as for equal slit phases and a
        # real g) skips the Im c_k sums and the q -= z_im Im c_k updates.
        # Each Im c_k would be +-0 and each update subtract a signed zero
        # from q.  q starts at the trace (math.fsum never returns -0), and a
        # sum or difference is -0 only when its first operand is, so q is
        # never -0; x - (+-0) = x for every x but -0, so q keeps its bits.
        complex_a = bool(a_im.any())
        q = np.full(x.shape, math.fsum(a_re.diagonal().tolist()))
        scale = 2.0 * np.pi * slits.spacing / (geometry.wavelength * geometry.distance)
        theta = scale * x
        cos, sin = np.cos(theta), np.sin(theta)
        z_re, z_im = cos.copy(), sin.copy()
        re_next, term = np.empty_like(x), np.empty_like(x)
        for k in range(1, n):
            if k > 1:
                np.multiply(z_re, cos, out=re_next)
                np.multiply(z_im, sin, out=term)
                re_next -= term
                np.multiply(z_re, sin, out=term)
                z_im *= cos
                z_im += term
                z_re, re_next = re_next, z_re
            re = 2.0 * math.fsum(a_re.diagonal(-k).tolist())
            np.multiply(z_re, re, out=term)
            q += term
            if complex_a:
                im = 2.0 * math.fsum(a_im.diagonal(-k).tolist())
                np.multiply(z_im, im, out=term)
                q -= term
    else:
        # A = F F^H, so q(x) = sum_m |s_m(x)|^2 with s_m = sum_i F_im u_i(x),
        # accumulated slit by slit in pivot order over the nonzero prefix of
        # F's row.  u_i(x) = exp(2 pi i c_i(x)) with c_i = (r_i - L) / lambda
        # the path excess of slit i in cycles, r_i = sqrt(L^2 + d^2) and
        # d = x - pos_i: the common phase exp(i k L) drops out of every
        # |s_m|^2.  c_i is formed without cancellation as
        # d^2 / ((sqrt(L^2 + d^2) + L) lambda), and theta = 2 pi (c_i -
        # rint(c_i)) lies in [-pi, pi], so libm's cos/sin need no large
        # argument reduction.  Every step is correctly rounded (u = eps/2):
        # d^2 carries 3u, the denominator 5u and the quotient u, so to first
        # order c_i is within 9u |c_i| of the excess of the float x and pos_i.
        # Subtracting rint(c_i) is exact, and the product with the float 2 pi
        # adds at most 2 pi u, so theta is within 2 pi u (9 |c_i| + 1) of the
        # true phase modulo 2 pi.  At 1 m and 500 nm, c_i is about 1600
        # cycles 4 fringe widths off axis, so the bound is 1.0e-11 rad there
        # and shrinks as d^2 towards the axis, where omega t_i from an
        # absolute path of about L metres would err by about
        # 2 pi eps L / lambda, 2.8e-9 rad, at every x.
        # c_i is homogeneous of degree 0 in (x, pos, L, lambda), so all four
        # are multiplied by the one power of two 2^shift that puts the
        # largest of them in [2^509, 2^510).  That is exact, so the bits are
        # those of the unscaled steps whenever neither over- or underflows.
        # At any finite geometry d^2 stays below 2^1022, L^2 + d^2 below
        # 2^1023 and the denominator below 2^1022; the denominator is at
        # least L lambda 2^(2 shift), a normal float unless L lambda is below
        # 2^-2040 times the square of the largest of the four.
        # A real F (every f_im entry +-0, as for a real A: equal slit phases
        # and a real g) skips the two Im F updates.  Each would add a signed
        # zero, which leaves every nonzero s entry as it is and can flip only
        # the sign of an s entry that is already +-0; q squares every s
        # entry, so q keeps its bits.
        perm, f_re, f_im = pivoted_cholesky(a_re, a_im)
        rank = f_re.shape[1]
        complex_factor = bool(f_im.any())
        pos = slit_positions(n, slits.spacing)
        distance, wavelength = geometry.distance, geometry.wavelength
        largest = max(distance, wavelength, float(np.max(np.abs(x))), float(np.max(np.abs(pos))))
        # 2^shift itself can lie outside the floats, so ldexp applies it
        shift = 510 - math.frexp(largest)[1]
        x_s, pos_s = np.ldexp(x, shift), np.ldexp(pos, shift).tolist()
        dist_s, wave_s = math.ldexp(distance, shift), math.ldexp(wavelength, shift)
        dist_sq = dist_s * dist_s
        s_re = np.zeros((rank, x.size))
        s_im = np.zeros((rank, x.size))
        theta, den = np.empty_like(x), np.empty_like(x)
        cos, sin = np.empty_like(x), np.empty_like(x)
        for k, i in enumerate(perm.tolist()):
            np.subtract(x_s, pos_s[i], out=theta)  # d
            theta *= theta
            np.add(theta, dist_sq, out=den)
            np.sqrt(den, out=den)
            den += dist_s
            den *= wave_s
            theta /= den  # c_i
            np.rint(theta, out=den)
            theta -= den
            theta *= 2.0 * np.pi
            np.cos(theta, out=cos)
            np.sin(theta, out=sin)
            m = min(k + 1, rank)
            row_re, row_im = f_re[i, :m, None], f_im[i, :m, None]
            s_re[:m] += row_re * cos
            s_im[:m] += row_re * sin
            if complex_factor:
                s_re[:m] -= row_im * sin
                s_im[:m] += row_im * cos
        q = np.zeros_like(x)
        for m in range(rank):
            q += s_re[m] * s_re[m]
            q += s_im[m] * s_im[m]
    return q


def screen_pattern(
    slits: SlitArray, geometry: ScreenGeometry, x: np.ndarray, a_re: np.ndarray, a_im: np.ndarray
) -> InterferencePattern:
    """Put the Hermitian form q(x) = u(x) A u(x)^H of the PSD matrix
    A = a_re + i a_im, read from its diagonal and lower triangle, on the
    screen: the total is the envelope times q clipped at zero (rounding
    dust), the incoherent reference the envelope times sum_i I_i."""
    env = geometry.envelope_values(x)
    return InterferencePattern(
        grid=x,
        total=env * np.maximum(_intensity_samples(slits, geometry, x, a_re, a_im), 0.0),
        incoherent=env * math.fsum(slits.intensities.tolist()),
        n=slits.n,
        fringe_width=fringe_width(geometry, slits),
    )


def pattern(
    slits: SlitArray, coh: CoherenceMatrix, geometry: ScreenGeometry
) -> InterferencePattern:
    """Sample the analytic intensity pattern over the geometry's grid.

    Returns the total intensity together with the incoherent reference
    sum_i I_i(x), the pattern that remains when all cross coherences vanish.
    With the identity coherence matrix the two coincide; with full coherence,
    equal intensities and zero phases the total reproduces the classic n-slit
    grating profile.
    """
    a_re, a_im = mutual_intensity(slits, coh)
    return screen_pattern(slits, geometry, geometry.grid(), a_re, a_im)


def intensity_at(
    slits: SlitArray, coh: CoherenceMatrix, geometry: ScreenGeometry, x: float
) -> float:
    """Total intensity at a single screen position x, one finite number."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != 1 or not np.isfinite(x[0]):
        raise ValueError(f"x must be one finite screen position, got {x.tolist()}")
    a_re, a_im = mutual_intensity(slits, coh)
    return float(screen_pattern(slits, geometry, x, a_re, a_im).total[0])


def write_pattern_csv(pat: InterferencePattern, path) -> None:
    """Write `x,total,incoherent` rows, x in the unit of pat.grid.

    The header names x `x_w` when pat.fringe_width is 1.0, as in_fringe_widths()
    sets it; x in metres at a fringe width of exactly 1 m reads the same.
    Floats use shortest round-trip repr with a `.` decimal point, so files
    are byte-stable and locale independent.  Each block of _CSV_BLOCK_ROWS
    rows is formatted into one string and written with one call, and a
    column that holds one value (the same float64 bits on every row, as
    the uniform envelope's incoherent column sum_i I_i does) is formatted
    once and reused on each row.  Neither changes a byte of the file.
    """
    inc = pat.incoherent
    bits = inc.view(np.int64)
    # bits, not float ==, so 0.0 and -0.0 keep their own reprs
    tail = f",{inc[0].item()!r}\n" if bits.size and (bits == bits[0]).all() else None
    with open(path, "w", newline="") as f:
        f.write(_CSV_HEADERS[pat.fringe_width == 1.0] + "\n")
        for start in range(0, pat.grid.size, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            cols = pat.grid[block].tolist(), pat.total[block].tolist()
            if tail is None:
                rows = [f"{x!r},{t!r},{i!r}\n" for x, t, i in zip(*cols, inc[block].tolist())]
            else:
                rows = [f"{x!r},{t!r}{tail}" for x, t in zip(*cols)]
            f.write("".join(rows))
