"""Monte-Carlo field-ensemble validation of the analytic pattern.

Random stationary fields are synthesized by eigenmode (Karhunen-Loeve)
sampling of the mutual-intensity matrix A_ij = sqrt(I_i I_j) g_ij
exp(i(alpha_i - alpha_j)) of engine.mutual_intensity, slit phases included:
each realization is E = sum_m sqrt(lambda_m) u_m c_m with (lambda_m, u_m) the
eigenpairs of A and c_m independent complex circular Gaussians of unit
variance, so the ensemble second moments <E_i E_j*> reproduce A exactly.
Propagating every realization to the screen and averaging |field|^2
converges to the analytic pattern at the usual 1/sqrt(N) Monte-Carlo rate.
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
    slit_phase_factors,
)

EIGENVALUE_FLOOR = -1e-10

# Fixed reduction granularity: ensemble sums are accumulated in chunks of
# this many realizations so results do not depend on available memory.
_CHUNK = 512


@dataclass(frozen=True)
class EnsembleSpec:
    """Sampling recipe for a field ensemble: realization count, base seed and
    the eigendecomposition of the mutual-intensity matrix."""

    realizations: int
    seed: int
    eigenvalues: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("need at least one realization")
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


def realize_fields(spec: EnsembleSpec, k: int) -> np.ndarray:
    """Complex field amplitudes at the slits for realization k.

    Deterministic given (seed, k): each realization owns an independent
    substream, so ensembles of different sizes share their common prefix.
    """
    rng = np.random.default_rng((spec.seed, k))
    r = spec.eigenvalues.size
    coeff = np.sqrt(0.5) * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
    return spec.modes @ (np.sqrt(spec.eigenvalues) * coeff)


def mc_pattern(
    slits: SlitArray,
    coh: CoherenceMatrix,
    geometry: ScreenGeometry,
    realizations: int,
    seed: int,
) -> InterferencePattern:
    """Ensemble-averaged intensity pattern from sampled field realizations.

    Each realization, whose slit fields already carry the slit phases, is
    propagated to the screen as sqrt(envelope(x)) * sum_i E_i u_i(x) and the
    intensities are averaged over the ensemble.  Deterministic given the
    seed: chunked accumulation in a fixed order makes reruns bit-identical.
    """
    if realizations < 100:
        raise ValueError("need at least 100 realizations for a meaningful average")
    spec = ensemble_spec(slits, coh, realizations, seed)
    x = geometry.grid()
    propagate = slit_phase_factors(geometry, slits, x).T  # (n, samples)
    # sum_k |sum_i E_i u_i|^2 factored through the realization Gram matrix
    # sum_k E_k E_k^dagger: same ensemble statistic, O(N n^2) instead of O(N n X)
    gram = np.zeros((slits.n, slits.n), dtype=complex)
    # The sum of N realizations is N times their mean, which may overflow
    # where the mean does not.  Fields are summed scaled by 2^-shift with
    # 4^shift >= N, the smallest such power, and the mean is scaled back.
    # Power-of-two scaling is exact, so the pattern keeps its bits unless a
    # scaled product E_i E_j* falls below the normal range, i.e. below
    # 4^shift * 2^-1022 (about 2e-302 at N = 10^6).
    shift = ((realizations - 1).bit_length() + 1) // 2
    for start in range(0, realizations, _CHUNK):
        count = min(_CHUNK, realizations - start)
        fields = np.empty((count, slits.n), dtype=complex)
        for k in range(count):
            fields[k] = realize_fields(spec, start + k)
        fields *= 2.0**-shift
        gram += fields.T @ fields.conj()
    acc = ((gram @ propagate.conj()) * propagate).sum(axis=0).real
    return screen_pattern(slits, geometry, x, (acc / realizations) * 4.0**shift)


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
