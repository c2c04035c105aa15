"""Monte-Carlo field-ensemble validation of the analytic pattern.

Random stationary fields are synthesized by eigenmode (Karhunen-Loeve)
sampling of the mutual-intensity matrix A_ij = sqrt(I_i I_j) g_ij
exp(i(alpha_i - alpha_j)) of engine.mutual_intensity, slit phases included:
each realization is E = sum_m sqrt(lambda_m) u_m c_m with (lambda_m, u_m) the
eigenpairs of A and c_m independent complex circular Gaussians of unit
variance, so the ensemble second moments <E_i E_j*> reproduce A exactly.
The ensemble mean of |field|^2 on the screen converges to the analytic
pattern at the usual 1/sqrt(N) Monte-Carlo rate.

An ensemble is one stream: realization k is row k of the coefficients drawn
from default_rng(seed), so the ensemble mean of E E^dagger is the covariance
G = F W F^dagger with F = modes * sqrt(lambda) and W the mean of c c^dagger
over the rows.  W has entries of order one, so the sum behind it cannot
overflow.  The mean screen intensity is the Hermitian form u G u^dagger,
which engine.screen_pattern evaluates with the same fixed-order kernel as
the analytic pattern's u A u^dagger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from duality_lab.coherence import CoherenceMatrix
from duality_lab.engine import (
    InterferencePattern,
    ScreenGeometry,
    SlitArray,
    mutual_intensity,
    pattern,
    screen_pattern,
)

EIGENVALUE_FLOOR = -1e-10

# Smallest ensemble size that mc_pattern averages and a scenario may enable.
MIN_REALIZATIONS = 100

# Fixed reduction granularity: ensemble sums are accumulated in chunks of
# this many realizations so results do not depend on available memory.
_CHUNK = 512

# Cap on the ensemble size: mc_pattern costs about 0.21 s per 10^6
# realizations for three slits, so 2^24 (1.7e7) is about 3.5 s there; the
# per-realization cost grows as r^2 with the mode count r.
MAX_REALIZATIONS = 2**24


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling recipe for a field ensemble: realization count, base seed and
    the eigendecomposition of the mutual-intensity matrix."""

    realizations: int
    seed: int
    eigenvalues: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.realizations <= MAX_REALIZATIONS:
            raise ValueError(f"need 1 to {MAX_REALIZATIONS} realizations")
        self.eigenvalues.setflags(write=False)
        self.modes.setflags(write=False)


def ensemble_spec(
    slits: SlitArray, coh: CoherenceMatrix, realizations: int, seed: int
) -> EnsembleSpec:
    """Eigendecompose the mutual-intensity matrix A, slit phases included.

    Eigenvalues within the -1e-10 floor of zero are clipped to zero; more
    negative ones mean the matrix is not realizable and raise.
    """
    a_re, a_im = mutual_intensity(slits.intensities, coh, slits.phases)
    lam, modes = np.linalg.eigh(a_re + 1j * a_im)
    floor = EIGENVALUE_FLOOR * max(1.0, float(slits.intensities.sum()))
    if lam[0] < floor:
        raise ValueError(f"mutual-intensity eigenvalue {lam[0]:.3e} below floor")
    lam = np.clip(lam, 0.0, None)
    # drop eigensolver dust so numerically rank-deficient matrices sample
    # exactly as many modes as they physically carry
    lam[lam < 1e-12 * lam.max()] = 0.0
    return EnsembleSpec(
        realizations=realizations, seed=seed, eigenvalues=lam, modes=modes
    )


def _coefficients(rng: np.random.Generator, count: int, r: int) -> np.ndarray:
    # count rows of unit-variance circular Gaussians, equal however rows are split
    z = rng.standard_normal((count, 2, r))
    return np.sqrt(0.5) * (z[:, 0] + 1j * z[:, 1])


def realize_fields(spec: EnsembleSpec, k: int | np.ndarray) -> np.ndarray:
    """Slit field amplitudes of realization k, one row per index if k is an array.

    Realization k is row k of the seeded stream that mc_pattern averages, so
    ensembles of different sizes share their first realizations.  A call
    draws rows 0..max(k), so it costs O(max(k)).
    """
    if np.min(k) < 0:
        raise IndexError("realization indices start at 0")
    rng = np.random.default_rng(spec.seed)
    coeff = _coefficients(rng, int(np.max(k)) + 1, spec.eigenvalues.size)[k, None, :]
    return (coeff * (spec.modes * np.sqrt(spec.eigenvalues))).sum(axis=-1)


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
    chunked accumulation in a fixed order makes reruns bit-identical.
    """
    if realizations < MIN_REALIZATIONS:
        raise ValueError(f"need at least {MIN_REALIZATIONS} realizations for a meaningful average")
    spec = ensemble_spec(slits, coh, realizations, seed)
    # G = F W F^dagger with F = modes * sqrt(lambda), W = mean_k c_k c_k^dagger:
    # O(N n^2); the c sum cannot overflow
    rng = np.random.default_rng(spec.seed)
    w = np.zeros((slits.n, slits.n), dtype=complex)
    for start in range(0, spec.realizations, _CHUNK):
        c = _coefficients(rng, min(_CHUNK, spec.realizations - start), slits.n)
        w += c.T @ c.conj()
    f = spec.modes * np.sqrt(spec.eigenvalues)
    gram = f @ (w / spec.realizations) @ f.conj().T
    return screen_pattern(slits, geometry, geometry.grid(), gram.real, gram.imag)


def convergence_report(
    slits: SlitArray,
    coh: CoherenceMatrix,
    geometry: ScreenGeometry,
    realizations: int,
    seed: int,
) -> tuple[InterferencePattern, dict]:
    """Run the Monte-Carlo ensemble and compare it against the analytic pattern.

    Returns the ensemble pattern together with the largest pointwise
    deviation across the grid, normalized by the analytic primary-maximum
    intensity, and where it occurs: {"N": ..., "max_rel_dev": ..., "at_x": ...}.
    """
    mc = mc_pattern(slits, coh, geometry, realizations, seed)
    analytic = pattern(slits, coh, geometry)
    peak = float(analytic.total.max())
    dev = np.abs(mc.total - analytic.total) / peak
    worst = int(np.argmax(dev))
    return mc, {
        "N": realizations,
        "max_rel_dev": float(dev[worst]),
        "at_x": float(mc.grid[worst]),
    }
