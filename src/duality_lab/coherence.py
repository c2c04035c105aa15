"""Normalized mutual-coherence matrices for multislit beams.

The coherence matrix collects the pairwise normalized field correlations
g_ij between n slits: unit diagonal, Hermitian, positive semidefinite and
all moduli at most 1.  validate() stores the exact Hermitian part of its
input with unit diagonal, the one g that every reader uses as stored.
Physically realizable matrices are Gram matrices of field modes, which is
also how random test instances are generated here.

The checks and the Gram product are written once, as private cores over
leading batch axes ([..., n, n] matrices, [..., n, r] mode rows): the sweep
evaluates each n as one stack, and validate(), from_modes() and
random_coherence() are the no-batch case of the same cores, with the same
bits.

Every complex value that reaches an output is formed here from real and
imaginary parts by elementwise real ufuncs in a fixed order: _product is the
package's one complex matrix product (the oracle's too), moduli are libm's
hypot, and _complex joins parts by copying them.  No BLAS call and no numpy
complex multiply, division or modulus enters g, so its bits do not depend on
the BLAS kernel or on which SIMD loops numpy dispatches to.  Only checks that
accept or refuse a matrix (the tolerance tests and eigvalsh) use numpy's
complex routines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
DIAGONAL_TOL = 1e-10
MODULUS_TOL = 1e-10
PSD_FLOOR = -1e-10
POLARIZATION_NORM_TOL = 1e-12


class CoherenceMatrixError(ValueError):
    """A raw matrix failed coherence validation."""


class TooSmall(CoherenceMatrixError):
    """Fewer than two slits."""


class NotFinite(CoherenceMatrixError):
    """Some g_ij is NaN or infinite."""


class NotHermitian(CoherenceMatrixError):
    """g_ij differs from conj(g_ji) beyond tolerance."""


class DiagonalNotUnit(CoherenceMatrixError):
    """Some g_ii deviates from 1."""


class NotPositiveSemidefinite(CoherenceMatrixError):
    """Negative eigenvalue, or an off-diagonal modulus above 1."""


@dataclass(frozen=True)
class CoherenceMatrix:
    """Validated n x n normalized mutual-coherence matrix.

    Construct through validate(), from_modes() or random_coherence().  The
    entry array is frozen after construction; all operations treat it as
    immutable.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    def magnitudes(self) -> np.ndarray:
        """Moduli |g_ij| with zero diagonal, clipped at the physical bound 1.

        The clip removes rounding dust just above 1 (validation admits up to
        1 + 1e-10) so that averaged measures stay inside [0, 1].
        """
        return _magnitudes(self.entries)

    def to_json(self) -> str:
        """Serialize as {"n": ..., "re": [[...]], "im": [[...]]}.

        Floats are written with shortest round-trip repr, so the matrix is
        recovered bit-for-bit by scenario.load_matrix.
        """
        return json.dumps(
            {
                "n": self.n,
                "re": self.entries.real.tolist(),
                "im": self.entries.imag.tolist(),
            }
        )


def validate(matrix) -> CoherenceMatrix:
    """Check a raw complex matrix and store a new array, its exact Hermitian
    part 0.5 * (m + m^H) with diagonal exactly 1; the input is left as is.

    Rejections, judged on the raw input:
      TooSmall                 fewer than 2 slits
      NotFinite                some entry is NaN or infinite
      NotHermitian             max |g_ij - conj(g_ji)| > 1e-10
      DiagonalNotUnit          max |g_ii - 1| > 1e-10
      NotPositiveSemidefinite  smallest eigenvalue < -1e-10, or any
                               |g_ij| > 1 + 1e-10 (cheap independent guard)
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise CoherenceMatrixError(f"expected a square matrix, got shape {m.shape}")
    return CoherenceMatrix(n=m.shape[0], entries=_hermitian_part(m))


def _set_diagonal(a: np.ndarray, value) -> None:
    """Write value on the diagonal of every n x n matrix of a stack."""
    k = np.arange(a.shape[-1])
    a[..., k, k] = value


def _matrix_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each n x n matrix of a C-contiguous stack, taken over its n*n
    entries in one reduction: the order numpy sums a single matrix in, so a
    stack sums each member to the bits of that member alone."""
    return a.reshape(*a.shape[:-2], -1).sum(axis=-1)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """validate()'s checks and stored matrix for a stack of raw complex
    matrices [..., n, n]; a new array, the input is left as is.  A stack is
    refused by the first check that any of its matrices fails."""
    n = m.shape[-1]
    if n < 2:
        raise TooSmall(f"need at least 2 slits, got n={n}")
    finite = np.isfinite(m)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0])
        raise NotFinite(f"g[{at[-2]},{at[-1]}] = {m[at]} is not finite")
    m_h = m.conj().swapaxes(-1, -2)
    # entries near the float limit overflow these deviations to inf, which
    # every tolerance refuses
    with np.errstate(over="ignore"):
        herm_dev = float(np.max(np.abs(m - m_h)))
        diag_dev = float(np.max(np.abs(np.diagonal(m, axis1=-2, axis2=-1) - 1.0)))
        mag_max = float(np.max(np.abs(m)))
    if herm_dev > HERMITIAN_TOL:
        raise NotHermitian(f"max |g_ij - conj(g_ji)| = {herm_dev:.3e}")
    if diag_dev > DIAGONAL_TOL:
        raise DiagonalNotUnit(f"max |g_ii - 1| = {diag_dev:.3e}")
    if mag_max > 1.0 + MODULUS_TOL:
        raise NotPositiveSemidefinite(f"off-diagonal modulus {mag_max:.6f} exceeds 1")
    g = m + m_h
    parts = g.view(float)  # halved in real arithmetic, re and im alike
    parts *= 0.5
    _set_diagonal(g, 1.0)
    lowest = float(np.min(np.linalg.eigvalsh(g)[..., 0]))
    if lowest < PSD_FLOOR:
        raise NotPositiveSemidefinite(f"smallest eigenvalue {lowest:.3e}")
    return g


def _magnitudes(g: np.ndarray) -> np.ndarray:
    """CoherenceMatrix.magnitudes() of a stack of stored matrices."""
    mag = np.minimum(np.hypot(g.real, g.imag), 1.0)
    _set_diagonal(mag, 0.0)
    return mag


@dataclass(frozen=True)
class ModeDecomposition:
    """Per-slit complex mode amplitudes; row i spans the field at slit i.

    The Gram matrix of the normalized rows is a valid coherence matrix, so
    this is the constructive route to an arbitrary realizable instance.  The
    Monte-Carlo oracle does not sample from these rows; it factors the
    mutual-intensity matrix itself (oracle.ensemble_spec).
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2:
            raise ValueError(f"expected an (n, r) array, got shape {v.shape}")
        zero = ~v.any(axis=1)  # not the norm, which over- or underflows
        if zero.any():
            raise ValueError(f"zero-norm mode row at slit {int(np.flatnonzero(zero)[0])}")
        object.__setattr__(self, "vectors", v)
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class PolarizationSet:
    """Unit-norm complex 2-vectors (Jones states), one per slit."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) array, got shape {v.shape}")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, refused
            norms = np.linalg.norm(v, axis=1)
        if np.max(np.abs(norms - 1.0)) > POLARIZATION_NORM_TOL:
            raise ValueError("polarization vectors must have unit norm")
        object.__setattr__(self, "vectors", v)
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array with the given real and imaginary parts, copied as they
    are: no complex arithmetic, so no rounding and no change of signed zeros."""
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _product(a_re, a_im, b_re, b_im) -> np.ndarray:
    """A B for complex A [..., p, q] and B [..., q, s], given as real and
    imaginary parts, summed over the inner index in order by elementwise
    real ufuncs: term k adds a_re b_re - a_im b_im and a_re b_im + a_im b_re,
    each formed whole before it is added.  Row k of B is b[..., k, :], which
    broadcasts against A's column k as [..., p, 1], so a batched B [m, q, s]
    is passed as [m, 1, q, s]; a 1-d A is one row."""
    shape = np.broadcast_shapes(a_re.shape[:-1] + (1,), b_re.shape[:-2] + b_re.shape[-1:])
    out_re, out_im = np.zeros(shape), np.zeros(shape)
    t, u = np.empty(shape), np.empty(shape)
    for k in range(b_re.shape[-2]):
        ar, ai = a_re[..., k, None], a_im[..., k, None]
        br, bi = b_re[..., k, :], b_im[..., k, :]
        np.multiply(ar, br, out=t)
        np.multiply(ai, bi, out=u)
        out_re += np.subtract(t, u, out=t)
        np.multiply(ar, bi, out=t)
        np.multiply(ai, br, out=u)
        out_im += np.add(t, u, out=t)
    return _complex(out_re, out_im)


def _unit_gram(rows: np.ndarray) -> np.ndarray:
    """Raw Gram products u u^H of the unit-normalized rows u of a stack
    [..., n, r], for validation.  Each row norm is the sqrt of the row sum
    of re^2 + im^2, each unit row two real divisions by it, and the Gram
    matrix one _product, so the bits of g rest on IEEE-754 arithmetic alone
    and each member of a stack gets the bits it gets alone."""
    re, im = rows.real, rows.imag
    norm = np.sqrt((re * re + im * im).sum(axis=-1))[..., None]
    u_re, u_im = re / norm, im / norm
    # u^H with the broadcast axis that a batched right factor needs
    h_re = u_re.swapaxes(-1, -2)[..., None, :, :]
    h_im = -u_im.swapaxes(-1, -2)[..., None, :, :]
    return _product(u_re, u_im, h_re, h_im)


def from_modes(
    decomp: ModeDecomposition, pols: PolarizationSet | None = None
) -> CoherenceMatrix:
    """Coherence matrix of a mode decomposition, optionally with polarization.

    g_ij is the normalized overlap of rows i and j; with Jones states, of the
    Kronecker rows m_i (x) p_i, the field at slit i (orthogonal polarizations
    kill the coherence of otherwise identical modes).  The overlap convention
    matches the field correlation <E_i E_j*>, so the result is exactly what
    the Monte-Carlo ensemble realizes.
    """
    # Each mode row is first scaled by the power of two that brings its
    # largest part into [0.5, 1): exact, so unit rows keep their bits, no
    # norm over- or underflows and no Jones product overflows.
    parts = np.ascontiguousarray(decomp.vectors).view(float)  # re, im interleaved
    _, exp = np.frexp(np.abs(parts).max(axis=1))
    rows = np.ldexp(parts, -exp[:, None]).view(complex)
    if pols is not None:
        if pols.n != decomp.n:
            raise ValueError(f"polarization count {pols.n} does not match mode rows {decomp.n}")
        # row i is m_i (x) p_i, the product of the column m_i and the row p_i
        p = pols.vectors[:, None, None, :]
        rows = _product(rows.real[:, :, None], rows.imag[:, :, None], p.real, p.imag)
        rows = rows.reshape(decomp.n, -1)
    return validate(_unit_gram(rows))


def random_coherence(n: int, rank: int, seed: int) -> CoherenceMatrix:
    """Random realizable coherence matrix: Gram matrix of n random complex
    unit vectors of dimension `rank`.  Deterministic for a given seed.

    rank=1 gives a fully coherent matrix (all moduli 1); rank >= n gives a
    generically full-rank matrix with all off-diagonal moduli below 1.
    """
    if n < 2:
        raise TooSmall(f"need at least 2 slits, got n={n}")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return validate(_unit_gram(_random_rows(n, rank, seed)))


def _random_rows(n: int, rank: int, seed: int) -> np.ndarray:
    """The n x rank complex normal mode rows random_coherence(n, rank, seed)
    takes the Gram matrix of."""
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((n, rank))
    return _complex(re, rng.standard_normal((n, rank)))


def degree_of_coherence(coh: CoherenceMatrix) -> float:
    """Average off-diagonal modulus over all n(n-1) ordered slit pairs.

    0 for fully incoherent light (identity matrix), 1 for fully coherent
    light (all moduli 1); matches the corrected visibility when the slit
    intensities are equal.
    """
    return float(_degree_of_coherence(coh.magnitudes()))


def _degree_of_coherence(mag: np.ndarray) -> np.ndarray:
    """degree_of_coherence() of a stack of magnitudes() arrays."""
    n = mag.shape[-1]
    return _matrix_sums(mag) / (n * (n - 1))
