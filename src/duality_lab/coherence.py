"""Normalized mutual-coherence matrices for multislit beams.

The coherence matrix collects the pairwise normalized field correlations
g_ij between n slits: unit diagonal, Hermitian, positive semidefinite and
all moduli at most 1.  validate() stores the exact Hermitian part of its
input with unit diagonal, the one g that every reader uses as stored.
Physically realizable matrices are Gram matrices of field modes, which is
also how random test instances are generated here.

validate() admits a matrix by one of two rules.  A matrix from outside
(configs, load_matrix, library callers) must pass its checks: finite,
Hermitian, unit diagonal, moduli at most 1 and eigvalsh's PSD test, which
measures' density matrices share.  A Gram matrix of unit rows, which
_unit_gram forms for from_modes(), random_coherence() and the sweep, is
exactly Hermitian as formed and PSD in exact arithmetic; it is stored as
formed, with the diagonal set to 1, when the rounding bound of
_gram_certified() holds, and goes through the checks otherwise.

The checks, the Gram product and the random draw are written once, as
private cores over leading batch axes ([..., n, n] matrices, [..., n, r]
mode rows): the sweep evaluates each n as one stack, and validate(),
from_modes() and random_coherence() are the no-batch case of the same
cores, with the same bits.

Every complex value that reaches an output is formed from real and
imaginary parts by elementwise real ufuncs in a fixed order.  Here, _product
is the package's one complex matrix product, which the oracle also uses for
its fields F c and for F W F^dagger; the oracle's sum W of the c c^dagger
is not a _product call but oracle._outer_sum's own real arithmetic, a fixed
pairwise tree.  Every modulus is libm's hypot of the two parts (_modulus),
every row norm the sqrt of the row sum of re^2 + im^2 (_row_norms), and
_complex joins parts by copying them.  When every imaginary input is +-0,
_product and _modulus skip the arithmetic whose result is exactly +-0 and
keep every bit (their docstrings give the argument).
No BLAS call and no numpy complex multiply, division or modulus enters g, so
its bits do not depend on the BLAS kernel or on which SIMD loops numpy
dispatches to.  The tolerance checks that accept or refuse a matrix from
outside or a Jones state use the same moduli and norms; only eigvalsh's PSD
test rests on LAPACK.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# unit roundoff of a double
U = np.finfo(float).eps / 2
# constant c of the rounding bound c n r u that certifies a unit-row Gram matrix
GRAM_C = 9
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
    """Validated n x n normalized mutual-coherence matrix; n is read from
    the entries, and entries that are not one square matrix are refused
    with CoherenceMatrixError.

    Construct through validate(), from_modes() or random_coherence().  The
    entry array is a read-only copy of the one given; all operations treat
    it as immutable.
    """

    entries: np.ndarray

    def __post_init__(self):
        _freeze(self, entries=_square(np.array(self.entries)))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

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

    The one other argument is _unit_gram's private result, which from_modes()
    passes: the Gram matrix of n unit rows of dimension r.  It is stored as
    formed, with diagonal exactly 1, when _gram_certified(n, r) shows that
    it passes every check above, and judged by them otherwise; either way
    its stored bytes are the same.
    """
    if isinstance(matrix, _UnitGram):
        g = _stored_gram(matrix)
    else:
        g = _hermitian_part(_square(np.asarray(matrix, dtype=complex)))
    return CoherenceMatrix(g)


@dataclass(frozen=True)
class _UnitGram:
    """_unit_gram's result: raw Gram products [..., n, n] of unit rows of
    dimension `rank`.  Only this form reaches _gram_certified(); a plain
    array given to validate() never does."""

    entries: np.ndarray
    rank: int


def _square(m: np.ndarray) -> np.ndarray:
    """m itself if it is one square matrix; else CoherenceMatrixError."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise CoherenceMatrixError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_count(name: str, value) -> None:
    """Refuse a count that is not an int or a numpy integer: a bool, or a
    float even of integral value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    """Refuse a real field that is not an int, float or numpy real number: a
    bool, a string or a complex number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _freeze(obj, **arrays) -> None:
    """Store each array on the frozen dataclass instance obj under its
    name, made read-only: the one rule of every value object's arrays."""
    for name, array in arrays.items():
        array.setflags(write=False)
        object.__setattr__(obj, name, array)


def _gram_certified(n: int, rank: int) -> bool:
    """Whether n x n Gram matrices of unit rows of dimension r = rank, as
    _unit_gram forms them and with the diagonal set to 1, pass every check
    of _hermitian_part by the rounding bound GRAM_C n r u (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 3; gamma_k =
    k u / (1 - k u), which is below 1.0102 k u for the k u <= 0.01 of any
    certified n r).  Such a g is finite, and Hermitian bit for bit because
    entry (j, i) sums the products of (i, j) with the imaginary ones negated.

    Each part of a computed unit row v_i is within e = gamma_(2r+3) of the
    exact unit row's, relatively (a norm of 2r squares, its sqrt, one
    division), so |v_i| lies within e of 1.  G = V V^H of the computed rows
    is PSD, and g - G = E is Hermitian:
      off the diagonal, a part of g_ij sums 2r real products and rounds by
      at most gamma_2r |v_i| |v_j|, so |E_ij| <= sqrt(2) gamma_2r (1 + e)^2;
      on it, |E_ii| = |1 - |v_i|^2| <= 2e + e^2.
    By Weyl's inequality, lambda_min(g) >= -||E||_2 >= -(max row sum of |E|)
      >= -[2e + e^2 + (n - 1) sqrt(2) gamma_2r (1 + e)^2]
      >= -1.0102 [(4r + 6) + 2.83 (n - 1) r] u >= -7.91 n r u,
    using 4r + 6 <= 5 n r for n >= 2.  Each computed modulus (hypot, within
    4u of the exact one, relatively) is at most
      (1 + e)^2 + sqrt(2) gamma_2r (1 + e)^2 + 4u <= 1 + (6.9 r + 10.1) u
      <= 1 + 8.5 n r u.
    So c = GRAM_C = 9 bounds both, and n r u c <= 1e-10 = -PSD_FLOOR =
    MODULUS_TOL admits n r up to 100079.  Underflow is left out: from_modes
    scales each row so that its largest part lies in [0.5, 1), which leaves
    absolute errors below 2^-1000 per operation, and a row of standard
    normals underflows in its norm only if every part is below 2^-500.
    """
    return GRAM_C * n * rank * U <= min(-PSD_FLOOR, MODULUS_TOL)


def _stored_gram(gram: _UnitGram) -> np.ndarray:
    """Stored entries of a stack of unit-row Gram matrices, written in place
    of gram.entries: as formed with the diagonal set to exactly 1 when
    _gram_certified(n, rank) and n >= 2, else _hermitian_part's checks and
    result, which are the same bytes for a matrix that passes them."""
    g = gram.entries
    n = g.shape[-1]
    if n < 2 or not _gram_certified(n, gram.rank):
        return _hermitian_part(g)
    _set_diagonal(g, 1.0)
    return g


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
    m_h = _check_hermitian(m, "g")
    # huge entries are refused here, before m + m^H; an overflowing modulus is inf
    with np.errstate(over="ignore"):
        diag_dev = float(np.max(_modulus(np.diagonal(m, axis1=-2, axis2=-1) - 1.0)))
        mag_max = float(np.max(_modulus(m)))
    if diag_dev > DIAGONAL_TOL:
        raise DiagonalNotUnit(f"max |g_ii - 1| = {diag_dev:.3e}")
    if mag_max > 1.0 + MODULUS_TOL:
        raise NotPositiveSemidefinite(f"off-diagonal modulus {mag_max:.6f} exceeds 1")
    g = m + m_h
    parts = g.view(float)  # halved in real arithmetic, re and im alike
    parts *= 0.5
    _set_diagonal(g, 1.0)
    _check_psd(g)
    return g


def _check_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    """Refuse a stack of complex matrices [..., n, n] named `name` with an
    entry not finite or max |m_ij - conj(m_ji)| above HERMITIAN_TOL; returns m^H."""
    finite = np.isfinite(m)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0])
        raise NotFinite(f"{name}[{at[-2]},{at[-1]}] = {m[at]} is not finite")
    m_h = m.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore"):  # an overflowing deviation is inf, refused
        herm_dev = float(np.max(_modulus(m - m_h)))
    if herm_dev > HERMITIAN_TOL:
        raise NotHermitian(f"not Hermitian, max |{name}_ij - conj({name}_ji)| = {herm_dev:.3e}")
    return m_h


def _check_psd(h: np.ndarray) -> None:
    """Refuse a stack of Hermitian matrices [..., n, n] with an eigenvalue below
    PSD_FLOOR; eigvalsh reads the lower triangle and is the package's one LAPACK call."""
    lowest = float(np.min(np.linalg.eigvalsh(h)[..., 0]))
    if lowest < PSD_FLOOR:
        raise NotPositiveSemidefinite(f"not positive semidefinite, smallest eigenvalue {lowest:.3e}")


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| of each entry, libm's hypot of the real and imaginary parts, or
    |re| when every imaginary part is +-0: C99 Annex F makes
    hypot(x, +-0) = |x| exact, so the bits are the same."""
    if z.imag.any():
        return np.hypot(z.real, z.imag)
    return np.abs(z.real)


def _row_norms(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Norm of each complex row [..., r] given as real and imaginary parts:
    the sqrt of the row sum of re^2 + im^2."""
    return np.sqrt((re * re + im * im).sum(axis=-1))


def _magnitudes(g: np.ndarray) -> np.ndarray:
    """Moduli with zero diagonal, clipped at 1, of a stack of matrices:
    CoherenceMatrix.magnitudes() of stored ones, and the off-diagonal moduli
    of density matrices, which are at most 1/2 and so never clipped."""
    mag = np.minimum(_modulus(g), 1.0)
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
        v = np.array(self.vectors, dtype=complex)
        if v.ndim != 2:
            raise ValueError(f"expected an (n, r) array, got shape {v.shape}")
        finite = np.isfinite(v).all(axis=1)
        if not finite.all():
            slit = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"non-finite mode entry at slit {slit}")
        zero = ~v.any(axis=1)  # not the norm, which over- or underflows
        if zero.any():
            raise ValueError(f"zero-norm mode row at slit {int(np.flatnonzero(zero)[0])}")
        _freeze(self, vectors=v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class PolarizationSet:
    """Unit-norm complex 2-vectors (Jones states), one per slit."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) array, got shape {v.shape}")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, refused
            norms = _row_norms(v.real, v.imag)
        unit = np.abs(norms - 1.0) <= POLARIZATION_NORM_TOL  # False for nan
        if not unit.all():
            slit = int(np.flatnonzero(~unit)[0])
            raise ValueError(
                f"polarization vectors must have unit norm: slit {slit} has norm {float(norms[slit])!r}"
            )
        _freeze(self, vectors=v)

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
    is passed as [m, 1, q, s]; a 1-d A is one row.
    When every imaginary part of both (finite) operands is +-0, only
    out_re += a_re b_re is accumulated and the imaginary part is the +0 it
    starts as.  Each skipped term is a sum or difference of products that
    are +-0, so it is +-0 itself; an accumulator that starts at +0 can
    never become -0, and x + (+-0) = x for every x but -0, so each part
    keeps its bits."""
    shape = np.broadcast_shapes(a_re.shape[:-1] + (1,), b_re.shape[:-2] + b_re.shape[-1:])
    out_re, out_im = np.zeros(shape), np.zeros(shape)
    t = np.empty(shape)
    if not (a_im.any() or b_im.any()):
        for k in range(b_re.shape[-2]):
            out_re += np.multiply(a_re[..., k, None], b_re[..., k, :], out=t)
        return _complex(out_re, out_im)
    u = np.empty(shape)
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


def _unit_gram(re: np.ndarray, im: np.ndarray) -> _UnitGram:
    """Raw Gram products u u^H of the unit-normalized rows u of a stack
    [..., n, r] given as real and imaginary parts, with their dimension r,
    as the _UnitGram that validate() and _stored_gram() admit.  Each row
    norm is the sqrt of the row sum of re^2 + im^2, each unit row two real
    divisions by it, and the Gram matrix one _product, so the bits of g rest
    on IEEE-754 arithmetic alone and each member of a stack gets the bits it
    gets alone.
    Entry (j, i) sums the same products as (i, j), the imaginary ones
    negated, so g is Hermitian bit for bit."""
    norm = _row_norms(re, im)[..., None]
    u_re, u_im = re / norm, im / norm
    # u^H with the broadcast axis that a batched right factor needs
    h_re = u_re.swapaxes(-1, -2)[..., None, :, :]
    h_im = -u_im.swapaxes(-1, -2)[..., None, :, :]
    return _UnitGram(_product(u_re, u_im, h_re, h_im), re.shape[-1])


def from_modes(
    decomp: ModeDecomposition, pols: PolarizationSet | None = None
) -> CoherenceMatrix:
    """Coherence matrix of a mode decomposition, optionally with polarization.

    g_ij is the normalized overlap of rows i and j; with Jones states, of the
    Kronecker rows m_i (x) p_i, the field at slit i (orthogonal polarizations
    kill the coherence of otherwise identical modes).  The overlap convention
    matches the field correlation <E_i E_j*>, so the result is exactly what
    the Monte-Carlo ensemble realizes.

    The Gram matrix of the unit rows (dimension r = the mode count, twice
    it with Jones states) goes to validate() in _unit_gram's private form:
    it is stored as formed, with diagonal 1, when _gram_certified() proves
    it passes validate()'s checks, and is judged by those checks and
    eigvalsh otherwise.
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
    return validate(_unit_gram(rows.real, rows.imag))


def random_coherence(n: int, rank: int, seed: int | np.random.Generator) -> CoherenceMatrix:
    """Random realizable coherence matrix: Gram matrix of n random complex
    unit vectors of dimension `rank`.  Deterministic for a given seed.  The
    seed may be a numpy Generator, which is drawn from as it is and moves on
    by exactly standard_normal((2, n, rank)); an integer seed gives the
    matrix that default_rng(seed) would.  The Gram matrix is admitted as
    validate() admits from_modes()'s: stored as formed, with diagonal 1,
    when _gram_certified(n, rank) holds, and through validate()'s checks
    otherwise, with the same bytes.

    rank=1 gives a fully coherent matrix (all moduli 1); rank >= n gives a
    generically full-rank matrix with all off-diagonal moduli below 1.
    n, rank and a seed that is not a Generator must be ints or numpy
    integers: a float or bool is refused with a ValueError, and so is a
    negative seed.
    """
    _check_count("n", n)
    _check_count("rank", rank)
    if not isinstance(seed, np.random.Generator):
        _check_count("seed", seed)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed!r}")
    if n < 2:
        raise TooSmall(f"need at least 2 slits, got n={n}")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    # default_rng returns a Generator unaltered, so it is drawn from as it is
    return CoherenceMatrix(_random_grams(np.random.default_rng(seed), n, rank))


def _random_grams(rng: np.random.Generator, n: int, rank: int, count: tuple = ()) -> np.ndarray:
    """Stored entries [*count, n, n] of random_coherence(n, rank, rng) for
    each of `count` instances, drawn as one rng.standard_normal((*count, 2,
    n, rank)) of real then imaginary mode rows: _stored_gram of _unit_gram of
    those rows.  numpy fills an array in order, so instance s gets the bits
    of the (s+1)-th one-instance draw."""
    z = rng.standard_normal((*count, 2, n, rank))
    return _stored_gram(_unit_gram(z[..., 0, :, :], z[..., 1, :, :]))


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
