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
sample for a rank-r A.  Only elementwise IEEE-754 operations in a fixed
order (sqrt among them) and the platform libm's cos, sin and, for the exact
phase model, hypot enter the form, so its bits are reproducible.
screen_pattern is the one evaluator of that form: the analytic pattern
passes A from mutual_intensity, the Monte-Carlo oracle its ensemble
covariance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from duality_lab.coherence import CoherenceMatrix, _set_diagonal

SPEED_OF_LIGHT = 299_792_458.0  # m/s

WINDOW_FRINGES = 4.0  # half-width of the over_fringes window, in fringe widths
PHASE_MODELS = ("small_angle", "exact")
ENVELOPES = ("uniform", "gaussian")

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
    return _intensity_rows(inten)


def _intensity_rows(inten: np.ndarray) -> np.ndarray:
    """intensity_vector()'s value rule for each row of a float stack [..., n],
    n >= 2; returns the stack."""
    if np.any(inten < 0.0):
        raise ValueError("slit intensities must be nonnegative")
    with np.errstate(over="ignore"):
        totals = inten.sum(axis=-1)
    limit = MAX_N_TIMES_SUM / inten.shape[-1]
    bad = ~((totals > 0.0) & (totals <= limit))
    if bad.any():
        total = totals[bad][0]
        error = ZeroTotalIntensity if total == 0.0 else ValueError
        raise error(
            f"sum of slit intensities must be positive and finite, at most {limit!r} "
            f"for {inten.shape[-1]} slits, got {total}"
        )
    return inten


@dataclass(frozen=True)
class SlitArray:
    """Equally spaced slits with per-slit on-screen intensities and phases.

    intensities[i] is the intensity at the screen if only slit i were open
    (propagation factors are absorbed into it); phases are the intrinsic
    per-slit phases alpha_i in radians; spacing is the centre-to-centre slit
    distance in metres.
    """

    intensities: np.ndarray
    spacing: float
    phases: np.ndarray = field(default=None)

    def __post_init__(self):
        inten = intensity_vector(self.intensities)
        if not 0.0 < self.spacing < math.inf:
            raise ValueError(f"slit spacing must be positive and finite, got {self.spacing}")
        ph = self.phases
        ph = np.zeros(inten.size) if ph is None else np.asarray(ph, dtype=float)
        if ph.shape != inten.shape:
            raise ValueError("phases must match the intensity vector length")
        if not np.all(np.isfinite(ph)):
            raise ValueError("slit phases must be finite")
        object.__setattr__(self, "intensities", inten)
        object.__setattr__(self, "phases", ph)
        inten.setflags(write=False)
        ph.setflags(write=False)

    @property
    def n(self) -> int:
        return self.intensities.size


@dataclass(frozen=True)
class ScreenGeometry:
    """Observation screen: wavelength, slit-to-screen distance, sampled window.

    envelope is the common per-slit diffraction profile multiplying every
    I_i: "uniform" (exact analytic checks) or "gaussian" with scale sigma in
    metres.  phase_model selects the pair-delay computation: "small_angle"
    (linear Fraunhofer phase, the default) or "exact" path lengths.
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
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.wavelength > 0.0:
            raise ValueError("wavelength must be positive")
        if not self.distance > 0.0:
            raise ValueError("slit-to-screen distance must be positive")
        if not self.x_min < self.x_max:
            raise ValueError("screen window must satisfy x_min < x_max")
        if self.samples < 2:
            raise ValueError("need at least 2 grid samples")
        if self.envelope not in ENVELOPES:
            raise ValueError(f"unknown envelope {self.envelope!r}")
        if self.envelope == "gaussian" and not (self.sigma or 0.0) > 0.0:
            raise ValueError("gaussian envelope needs sigma > 0")
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
        # libm's exp per sample: numpy's SIMD exp can differ in the last bit
        arg = -(x * x) / (2.0 * self.sigma * self.sigma)
        env = map(math.exp, arg.ravel().tolist())
        return np.fromiter(env, float, arg.size).reshape(x.shape)

    @classmethod
    def over_fringes(
        cls,
        slits: SlitArray,
        wavelength: float,
        distance: float,
        samples: int = 4096,
        envelope: str = "uniform",
        sigma: float | None = None,
        phase_model: str = "small_angle",
    ) -> ScreenGeometry:
        """Window spanning +-WINDOW_FRINGES fringe widths around the axis."""
        w = _fringe_width(wavelength, distance, slits.spacing)
        return cls(
            wavelength=wavelength,
            distance=distance,
            x_min=-WINDOW_FRINGES * w,
            x_max=WINDOW_FRINGES * w,
            samples=samples,
            envelope=envelope,
            sigma=sigma,
            phase_model=phase_model,
        )


@dataclass(frozen=True)
class InterferencePattern:
    """Sampled total intensity with its incoherent reference pattern, the
    slit count and the spacing of adjacent primary maxima in metres."""

    grid: np.ndarray
    total: np.ndarray
    incoherent: np.ndarray
    n: int
    fringe_width: float

    def __post_init__(self):
        for name in ("grid", "total", "incoherent"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)


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
    """Relative propagation delay tau_ij = t_i - t_j at screen position x, seconds."""
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


def mutual_intensity(
    intensities, coh: CoherenceMatrix, phases=None
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the Hermitian PSD mutual-intensity matrix
    A_ij = sqrt(I_i) sqrt(I_j) g_ij exp(i(alpha_i - alpha_j)), J for zero
    phases: the pattern is u A u* times the envelope, and A = <E_i E_j*> is
    what the oracle samples.  Built from real ufuncs only: numpy's complex
    multiply fuses multiply-adds on some CPUs, which would tie A to the build.
    Im A_ii is exactly 0, as g_ii = 1; Re A_ii is set to I_i, not sqrt(I_i)^2.
    """
    count = np.size(intensities)
    if coh.n != count:
        raise ValueError(f"coherence matrix size {coh.n} does not match slit count {count}")
    return _mutual_intensity(intensities, coh.entries, phases)


def _mutual_intensity(
    intensities, g: np.ndarray, phases=None
) -> tuple[np.ndarray, np.ndarray]:
    """mutual_intensity() of a stack: intensities [..., n], stored coherence
    matrices g [..., n, n] and phases [..., n] or None for zero phases."""
    amps = np.sqrt(intensities)
    g_re, g_im = g.real, g.imag
    weight = amps[..., :, None] * amps[..., None, :]
    phases = np.zeros(amps.shape) if phases is None else np.asarray(phases)
    dphi = phases[..., :, None] - phases[..., None, :]
    cos, sin = np.cos(dphi), np.sin(dphi)
    a_re = weight * (g_re * cos - g_im * sin)
    a_im = weight * (g_re * sin + g_im * cos)
    _set_diagonal(a_re, intensities)
    return a_re, a_im


def pivoted_cholesky(
    a_re: np.ndarray, a_im: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor the Hermitian PSD matrix A = a_re + i a_im, read from its
    diagonal and lower triangle, as A[perm][:, perm] ~ F F^H.

    Returns perm and the real and imaginary parts of F, an n x r matrix that
    is lower trapezoidal with a real positive diagonal: row k belongs to slit
    perm[k].  Outer-product Cholesky with complete pivoting (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 10): step k
    takes the first largest remaining diagonal entry as pivot and stops,
    with r = k, once that entry is at most tol = n * eps * max(diag A).
    Every step is elementwise real ufuncs in a fixed order, so F's bits
    depend on IEEE-754 arithmetic alone.

    Each kept entry carries the rounding of at most 2r + 2 steps, so
    |A - F F^H|_ij <= gamma_{2r+2} sum_k |F_ik| |F_jk| outside the dropped
    residual R, with gamma_m = m eps/2 / (1 - m eps/2).  R has diagonal at
    most tol; as a PSD matrix it changes the form u A u^H by at most
    n trace(R) <= n (n - r) tol for any u with |u_i| = 1.
    """
    n = a_re.shape[0]
    lower = np.tri(n, dtype=bool)
    r_re = np.where(lower, a_re, a_re.T)
    r_im = np.where(lower, a_im, -a_im.T)
    f_re = np.zeros((n, n))
    f_im = np.zeros((n, n))
    perm = np.arange(n)
    # max and argmax only compare, so no summation order enters
    tol = n * np.finfo(float).eps * np.max(a_re.diagonal())
    rank = n
    for k in range(n):
        p = k + int(np.argmax(r_re.diagonal()[k:]))
        if not r_re[p, p] > tol:
            rank = k
            break
        if p != k:
            for arr in (r_re, r_im):
                arr[[k, p]] = arr[[p, k]]
                arr[:, [k, p]] = arr[:, [p, k]]
            for arr in (f_re, f_im, perm):
                arr[[k, p]] = arr[[p, k]]
        pivot = math.sqrt(r_re[k, k])
        col_re = r_re[k + 1 :, k] / pivot
        col_im = r_im[k + 1 :, k] / pivot
        f_re[k, k] = pivot
        f_re[k + 1 :, k] = col_re
        f_im[k + 1 :, k] = col_im
        # R -= c c^H on the trailing block, real and imaginary parts
        rest_re = r_re[k + 1 :, k + 1 :]
        rest_im = r_im[k + 1 :, k + 1 :]
        rest_re -= np.multiply.outer(col_re, col_re)
        rest_re -= np.multiply.outer(col_im, col_im)
        rest_im -= np.multiply.outer(col_im, col_re)
        rest_im += np.multiply.outer(col_re, col_im)
    return perm, f_re[:, :rank], f_im[:, :rank]


def _intensity_samples(
    slits: SlitArray, geometry: ScreenGeometry, x: np.ndarray, a_re: np.ndarray, a_im: np.ndarray
) -> np.ndarray:
    # The Hermitian form q(x) = sum_ij u_i(x) A_ij conj(u_j(x)) is evaluated
    # in a form that is real by construction, using only correctly rounded
    # scalar sums and elementwise real ufuncs applied in a fixed order (no
    # einsum, BLAS or multi-element numpy reduction).  Each sample's bits then
    # depend only on IEEE-754 arithmetic and on the platform libm's cos/sin
    # (and hypot in the exact model), which is what makes seeded outputs
    # byte-stable.
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
            im = 2.0 * math.fsum(a_im.diagonal(-k).tolist())
            np.multiply(z_re, re, out=term)
            q += term
            np.multiply(z_im, im, out=term)
            q -= term
    else:
        # A = F F^H, so q(x) = sum_m |s_m(x)|^2 with s_m = sum_i F_im u_i(x):
        # u_i(x) = exp(i omega t_i(x)) from exact path lengths, accumulated
        # slit by slit in pivot order over the nonzero prefix of F's row.
        perm, f_re, f_im = pivoted_cholesky(a_re, a_im)
        rank = f_re.shape[1]
        pos = slit_positions(n, slits.spacing)
        wavenumber = 2.0 * np.pi / geometry.wavelength
        s_re = np.zeros((rank, x.size))
        s_im = np.zeros((rank, x.size))
        for k, i in enumerate(perm.tolist()):
            theta = wavenumber * np.hypot(geometry.distance, x - pos[i])
            cos, sin = np.cos(theta), np.sin(theta)
            m = min(k + 1, rank)
            row_re = f_re[k, :m, None]
            row_im = f_im[k, :m, None]
            s_re[:m] += row_re * cos
            s_re[:m] -= row_im * sin
            s_im[:m] += row_re * sin
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
    a_re, a_im = mutual_intensity(slits.intensities, coh, slits.phases)
    return screen_pattern(slits, geometry, geometry.grid(), a_re, a_im)


def intensity_at(
    slits: SlitArray, coh: CoherenceMatrix, geometry: ScreenGeometry, x: float
) -> float:
    """Total intensity at a single screen position."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a_re, a_im = mutual_intensity(slits.intensities, coh, slits.phases)
    return float(screen_pattern(slits, geometry, x, a_re, a_im).total[0])


def write_pattern_csv(pat: InterferencePattern, path, scale_w: bool = False) -> None:
    """Write `x,total,incoherent` rows; x in units of the fringe width if scale_w.

    Floats use shortest round-trip repr with a `.` decimal point, so files
    are byte-stable and locale independent.
    """
    xs = pat.grid / pat.fringe_width if scale_w else pat.grid
    rows = zip(xs.tolist(), pat.total.tolist(), pat.incoherent.tolist())
    with open(path, "w", newline="") as f:
        f.write("x,total,incoherent\n")
        f.writelines(f"{x!r},{t!r},{inc!r}\n" for x, t, inc in rows)
