"""Closed-form visibility, path distinguishability, and the duality relations.

All pair sums run over ordered pairs (i, j), i != j, normalized by 1/(n-1),
so every quantity lands in [0, 1].  Two relations are checked: the
Pythagorean form D^2 + V_C^2 <= 1 and the linear form D' + V_C <= 1, both
saturated exactly when every pair with nonzero intensity product is fully
coherent.  The report holds each left-hand side and whether it stays within
INEQUALITY_TOL of 1; in exact arithmetic they equal 1 - s^2 + V_C^2 and
1 - s + V_C, which the tests recompute at 50 digits from the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from duality_lab.coherence import CoherenceMatrix, degree_of_coherence
# ZeroTotalIntensity comes from the intensity rule and stays importable from here
from duality_lab.engine import ZeroTotalIntensity, intensity_vector, mutual_intensity  # noqa: F401

INEQUALITY_TOL = 1e-12


class _PairSums(NamedTuple):
    """Sums over ordered pairs, each over (n-1) sum_k I_k, of sqrt(I_i I_j)
    (s) and sqrt(I_i I_j)|g_ij| (v_c).  D and D' are written once, here."""

    s: float
    v_c: float | None = None

    @property
    def d(self) -> float:
        return float(np.sqrt(max(0.0, 1.0 - self.s * self.s)))

    @property
    def d_prime(self) -> float:
        return 1.0 - self.s


def _pair_weights(intensities, coh: CoherenceMatrix | None = None) -> _PairSums:
    """Ordered-pair sums of the weights sqrt(I_i I_j), alone and, given a
    coherence matrix, times |g_ij|, over the normalizer (n-1) * sum(I);
    computed on intensities rescaled by their maximum.

    The rescaling is exact for the limit cases: equal intensities become
    exactly 1.0 each, so the weighted sums divide out exactly and the
    distinguishability limits land on 0 and 1 at double precision.
    """
    inten = intensity_vector(intensities)
    n = inten.size
    r = inten / inten.max()
    pair = np.sqrt(np.outer(r, r))
    np.fill_diagonal(pair, 0.0)
    norm = (n - 1) * r.sum()
    s = float(pair.sum() / norm)
    if coh is None:
        return _PairSums(s)
    if coh.n != n:
        raise ValueError(f"coherence matrix size {coh.n} does not match {n} slits")
    return _PairSums(s, float((pair * coh.magnitudes()).sum() / norm))


def visibility_analytic(intensities, coh: CoherenceMatrix) -> float:
    """Corrected visibility: intensity-weighted average of coherence moduli,
    (1/(n-1)) * sum_{i != j} sqrt(I_i I_j) |g_ij| / sum_k I_k.

    For n=2 this reduces to the traditional fringe visibility
    |g_12| * 2*sqrt(I_1 I_2)/(I_1 + I_2); for equal intensities it equals
    the n-point degree of coherence.
    """
    return _pair_weights(intensities, coh).v_c


def distinguishability(intensities) -> float:
    """Path distinguishability D = sqrt(1 - s^2), where s is the normalized
    ordered-pair sum of sqrt(I_i I_j).

    1 when a single slit is open, 0 for equal intensities; reduces to
    |I_1 - I_2|/(I_1 + I_2) for two slits.
    """
    return _pair_weights(intensities).d


def distinguishability_prime(intensities) -> float:
    """Simpler path distinguishability D' = 1 - s; for two slits equals
    (sqrt(I_1) - sqrt(I_2))^2 / (I_1 + I_2).  Never exceeds D."""
    return _pair_weights(intensities).d_prime


def michelson(i_max: float, i_min: float) -> float:
    """Michelson fringe contrast (I_max - I_min)/(I_max + I_min)."""
    if not (i_max >= i_min >= 0.0):
        raise ValueError(f"need I_max >= I_min >= 0, got ({i_max}, {i_min})")
    if i_max <= 0.0:
        raise ValueError("I_max must be positive")
    return (i_max - i_min) / (i_max + i_min)


@dataclass(frozen=True)
class BeamDensityMatrix:
    """Density matrix of the beam in the path basis: rho_ij =
    sqrt(I_i I_j) g_ij / sum_k I_k.  Unit trace, Hermitian, PSD."""

    n: int
    rho: np.ndarray

    def __post_init__(self):
        self.rho.setflags(write=False)


def density_from_beams(intensities, coh: CoherenceMatrix) -> BeamDensityMatrix:
    """Build the path-basis density matrix from slit intensities and coherence."""
    inten = intensity_vector(intensities)
    total = inten.sum()
    a_re, a_im = mutual_intensity(inten, coh)
    return BeamDensityMatrix(n=inten.size, rho=(a_re + 1j * a_im) / total)


def quantum_coherence(density: BeamDensityMatrix) -> float:
    """l1-style coherence of a density matrix: (1/(n-1)) sum_{i != j} |rho_ij|.

    For the beam-induced density matrix this equals the corrected visibility
    V_C, reached by a different rounding route: |rho_ij| is taken after the
    entries of rho are formed, V_C weights the moduli |g_ij| by rescaled
    intensities, so the two agree to rounding, not bit for bit."""
    mag = np.abs(density.rho)
    np.fill_diagonal(mag, 0.0)
    return float(mag.sum() / (density.n - 1))


@dataclass(frozen=True)
class DualityReport:
    """All measures for one (intensities, coherence) instance, the left-hand
    sides of both duality relations and their verdicts.  Field names match
    the JSON wire format exactly."""

    n: int
    v_c: float
    d: float
    d_prime: float
    gamma_n: float
    c: float
    pyth_lhs: float
    lin_lhs: float
    pyth_holds: bool
    lin_holds: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def duality_report(intensities, coh: CoherenceMatrix) -> DualityReport:
    """Compute every measure and both duality checks for one instance."""
    sums = _pair_weights(intensities, coh)
    d, d_prime, v_c = sums.d, sums.d_prime, sums.v_c
    pyth_lhs = d * d + v_c * v_c
    lin_lhs = d_prime + v_c
    return DualityReport(
        n=coh.n,
        v_c=v_c,
        d=d,
        d_prime=d_prime,
        gamma_n=degree_of_coherence(coh),
        c=quantum_coherence(density_from_beams(intensities, coh)),
        pyth_lhs=pyth_lhs,
        lin_lhs=lin_lhs,
        pyth_holds=pyth_lhs <= 1.0 + INEQUALITY_TOL,
        lin_holds=lin_lhs <= 1.0 + INEQUALITY_TOL,
    )
