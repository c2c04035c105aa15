"""Monte-Carlo field-ensemble validation of the analytic pattern.

Random stationary fields are synthesized from a factor of the
mutual-intensity matrix A_ij = sqrt(I_i I_j) g_ij exp(i(alpha_i - alpha_j))
of engine.mutual_intensity, slit phases included: engine.pivoted_cholesky
factors A = F F^dagger with F of n x r for a rank-r A, and each realization
is E = F c with c r independent complex circular Gaussians of unit variance,
so the ensemble second moments <E_i E_j*> reproduce A.  Any factor with
A = F F^dagger gives fields of the same Gaussian law.  The ensemble mean of
|field|^2 on the screen converges to the analytic pattern at the usual
1/sqrt(N) Monte-Carlo rate.

An ensemble is its factor and one nonnegative integer seed, and it is one
stream: realization k is row k of the coefficients drawn from
default_rng(seed), on every call, so the ensemble mean of E E^dagger is the
covariance G = F W F^dagger with W the mean of c c^dagger over the rows.  W
has entries of order one, so the sum behind it cannot overflow.
mc_pattern is two steps: the ensemble step, _covariance, returns G, and the
screen step, engine.screen_pattern, evaluates the mean screen intensity as
the Hermitian form u G u^dagger with the same fixed-order kernel as the
analytic pattern's u A u^dagger.

F, W and G are all formed by elementwise real ufuncs in a fixed order, with
no LAPACK, BLAS, numpy complex ufunc or multi-element numpy reduction:
F W F^dagger and the fields F c go through coherence._product, the
package's one complex matrix product, the same one that forms the Gram
matrices of coherence.from_modes and random_coherence.  So the ensemble
pattern's bits rest on IEEE-754 arithmetic, the kernel's libm calls and
numpy's Generator stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from duality_lab.coherence import (
    CoherenceMatrix,
    _check_count,
    _complex,
    _freeze,
    _product,
)
from duality_lab.engine import (
    InterferencePattern,
    ScreenGeometry,
    SlitArray,
    mutual_intensity,
    pivoted_cholesky,
    screen_pattern,
)
# bench/tracing.py wraps oracle.pattern, so the name stays importable
from duality_lab.engine import pattern  # noqa: F401

# Smallest ensemble size that mc_pattern averages and a scenario may enable.
MIN_REALIZATIONS = 100

# Cap on the entries of one chunk's r x r coefficient products: the
# coefficient stream is read in chunks of the largest power of two rows
# whose products hold at most this many entries per real or imaginary part
# (512 kB each), so mc_pattern and realize_fields hold one chunk at a time
# for any ensemble size or index.
_CHUNK_ENTRIES = 1 << 16

# Cap on the ensemble size: mc_pattern costs about 0.3 s per 10^6
# realizations for three slits, so 2^24 (1.7e7) is about 5 s there; the
# per-realization cost grows as r^2 with the rank r of A.
MAX_REALIZATIONS = 2**24


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling recipe for a field ensemble: realization count (an int or
    numpy integer, 1 to MAX_REALIZATIONS), base seed (a nonnegative int or
    numpy integer) and the n x r factor F of the mutual-intensity matrix
    A = F F^dagger, rows in slit order: a finite 2-D numeric array with at
    least one column."""

    realizations: int
    seed: int
    factor: np.ndarray

    def __post_init__(self):
        _check_count("realizations", self.realizations)
        _check_count("seed", self.seed)
        if not 1 <= self.realizations <= MAX_REALIZATIONS:
            raise ValueError(f"need 1 to {MAX_REALIZATIONS} realizations")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        factor = np.array(self.factor)
        shaped = factor.dtype.kind in "iufc" and factor.ndim == 2 and factor.shape[1] > 0
        if not (shaped and np.isfinite(factor).all()):
            raise ValueError(
                "factor must be a finite 2-D numeric array with at least one column, "
                f"got {factor.dtype} of shape {factor.shape}"
            )
        _freeze(self, factor=factor)


def ensemble_spec(
    slits: SlitArray, coh: CoherenceMatrix, realizations: int, seed: int
) -> EnsembleSpec:
    """Factor the mutual-intensity matrix A, slit phases included, with
    engine.pivoted_cholesky, and store the factor as it returns it, rows in
    slit order.  Its column count r is the rank at which the factorization
    stops, so a rank-deficient A samples only as many coefficients as it
    carries."""
    a_re, a_im = mutual_intensity(slits, coh)
    _, f_re, f_im = pivoted_cholesky(a_re, a_im)
    return EnsembleSpec(realizations=realizations, seed=seed, factor=_complex(f_re, f_im))


def _coefficient_chunks(spec: EnsembleSpec, count: int):
    """Rows 0..count-1 of the ensemble's coefficient stream, unit-variance
    circular Gaussians as [rows, 2, r] real and imaginary parts, yielded
    with the index of their first row in chunks of a size fixed by r.  A row
    has the same bits however the stream is split."""
    r = spec.factor.shape[1]
    chunk = 1 << max(0, (_CHUNK_ENTRIES // (r * r)).bit_length() - 1)
    rng = np.random.default_rng(spec.seed)
    for start in range(0, count, chunk):
        yield start, np.sqrt(0.5) * rng.standard_normal((min(chunk, count - start), 2, r))


def _outer_sum(c: np.ndarray) -> np.ndarray:
    """sum_k c_k c_k^dagger over the rows of coefficients c [count, 2, r], as
    real and imaginary parts [2, r, r].  The coefficients are zero-padded to
    a power of two rows and the row products summed by adding halves, a
    fixed pairwise tree, each level added in place into the lower half."""
    count, r = len(c), c.shape[-1]
    size = 1 << (count - 1).bit_length()
    x = np.zeros((2, r, size))
    x[..., :count] = c.transpose(1, 2, 0)
    (a_re, a_im), (b_re, b_im) = x[:, :, None], x[:, None]
    p = np.empty((2, r, r, size))
    p[0] = a_re * b_re + a_im * b_im
    p[1] = a_im * b_re - a_re * b_im
    while size > 1:
        size //= 2
        p[..., :size] += p[..., size : 2 * size]
    return p[..., 0]


def realize_fields(spec: EnsembleSpec, k: int | np.ndarray) -> np.ndarray:
    """Slit field amplitudes E = F c of realization k, one row per index if k
    is an array.

    Realization k is row k of the seeded stream that mc_pattern averages, so
    ensembles of different sizes share their first realizations.  A call
    reads the stream's rows 0..max(k) chunk by chunk, as mc_pattern does,
    and gathers the asked-for rows from each chunk through the sorted
    indices, so it costs O(max(k)) time but holds only one chunk besides its
    result.  k must be a nonempty integer index or array, not bool, with
    entries in [0, MAX_REALIZATIONS).
    """
    idx = np.asarray(k)
    ok = idx.dtype.kind in "iu" and idx.size > 0
    if not (ok and 0 <= idx.min() and idx.max() < MAX_REALIZATIONS):
        raise IndexError(f"realization index k: need nonempty integers in [0, {MAX_REALIZATIONS})")
    f = spec.factor
    order = np.argsort(idx, axis=None)
    wanted = idx.ravel()[order]
    c = np.empty((idx.size, 2, f.shape[1]))
    for start, rows in _coefficient_chunks(spec, int(wanted[-1]) + 1):
        lo, hi = np.searchsorted(wanted, [start, start + len(rows)])
        c[order[lo:hi]] = rows[wanted[lo:hi] - start]
    c = c.reshape(idx.shape + c.shape[1:])
    return _product(c[..., 0, :], c[..., 1, :], f.real.T, f.imag.T)


def _covariance(spec: EnsembleSpec) -> np.ndarray:
    """The ensemble covariance G = F W F^dagger of the fields, with W the
    mean of c_k c_k^dagger over the spec's coefficient rows: O(N r^2 + n^2
    r), and the c sum cannot overflow."""
    f_re, f_im = spec.factor.real, spec.factor.imag
    r = f_re.shape[1]
    w = np.zeros((2, r, r))
    for _, c in _coefficient_chunks(spec, spec.realizations):
        w += _outer_sum(c)
    w /= spec.realizations
    h = _product(f_re, f_im, w[0], w[1])
    return _product(h.real, h.imag, f_re.T, -f_im.T)


def mc_pattern(
    slits: SlitArray,
    coh: CoherenceMatrix,
    geometry: ScreenGeometry,
    realizations: int,
    seed: int,
) -> InterferencePattern:
    """Ensemble-averaged intensity pattern from sampled field realizations.

    Each realization, whose slit fields already carry the slit phases, lands
    on the screen as sqrt(envelope(x)) * sum_i E_i u_i(x); the mean of its
    intensity over the ensemble is the envelope times u G u^dagger, with G
    the ensemble covariance of the fields.  Deterministic given the seed:
    chunks of a size fixed by the rank, each summed in a fixed tree, make
    reruns bit-identical on any BLAS and SIMD dispatch.
    """
    _check_count("realizations", realizations)
    if realizations < MIN_REALIZATIONS:
        raise ValueError(f"need at least {MIN_REALIZATIONS} realizations for a meaningful average")
    g = _covariance(ensemble_spec(slits, coh, realizations, seed))
    return screen_pattern(slits, geometry, geometry.grid(), g.real, g.imag)


def convergence_report(
    mc: InterferencePattern, analytic: InterferencePattern, realizations: int
) -> dict:
    """Compare an ensemble pattern of the given size with the analytic
    pattern on the same grid.

    Both patterns come from engine.screen_pattern, the analytic one with the
    mutual-intensity matrix A and mc_pattern's with the ensemble covariance
    G, so the deviation measures G against A as seen on the screen and
    nothing else: a fault in the screen kernel moves both patterns alike.

    Returns the largest pointwise deviation across the grid, normalized by
    the analytic primary-maximum intensity, and where it occurs:
    {"N": ..., "max_rel_dev": ..., "at_x": ...}.  Raises ValueError when
    that deviation is not a finite number, as when the envelope leaves the
    analytic pattern zero across the whole window.
    """
    peak = float(analytic.total.max())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dev = np.abs(mc.total - analytic.total) / peak
    worst = int(np.argmax(dev))  # the first NaN, if there is one
    if not np.isfinite(dev[worst]):
        raise ValueError(
            f"convergence: the analytic primary maximum {peak!r} on the screen window "
            "is too small to scale the Monte-Carlo deviation by"
        )
    return {
        "N": realizations,
        "max_rel_dev": float(dev[worst]),
        "at_x": float(mc.grid[worst]),
    }
