"""Closed-form visibility, path distinguishability, and the duality relations.

All pair sums run over ordered pairs (i, j), i != j, normalized by 1/(n-1),
so every quantity lands in [0, 1].  Two relations are checked: the
Pythagorean form D^2 + V_C^2 <= 1 and the linear form D' + V_C <= 1, both
saturated exactly when every pair with nonzero intensity product is fully
coherent.  The report holds each left-hand side and whether it stays within
INEQUALITY_TOL of 1; in exact arithmetic they equal 1 - s^2 + V_C^2 and
1 - s + V_C, which the tests recompute at 50 digits from the same inputs.

Every measure is written once, as a private core over leading batch axes
(intensities [..., n], coherence matrices [..., n, n]): the sweep evaluates
each n as one stack through _reports, and the public one-instance functions
are its no-batch case, with the same bits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from duality_lab.coherence import (
    CoherenceMatrix,
    _complex,
    _degree_of_coherence,
    _magnitudes,
    _matrix_sums,
    _set_diagonal,
)
# ZeroTotalIntensity comes from the intensity rule and stays importable from here
from duality_lab.engine import (  # noqa: F401
    ZeroTotalIntensity,
    _mutual_intensity,
    intensity_vector,
    mutual_intensity,
)

INEQUALITY_TOL = 1e-12


class _PairSums(NamedTuple):
    """Sums over ordered pairs, each over (n-1) sum_k I_k, of sqrt(I_i I_j)
    (s) and sqrt(I_i I_j)|g_ij| (v_c), one per instance of a stack.  D and
    D' are written once, here."""

    s: np.ndarray
    v_c: np.ndarray | None = None

    @property
    def d(self) -> np.ndarray:
        return np.sqrt(np.maximum(0.0, 1.0 - self.s * self.s))

    @property
    def d_prime(self) -> np.ndarray:
        return 1.0 - self.s


def _pair_sums(inten: np.ndarray, mag: np.ndarray | None = None) -> _PairSums:
    """Ordered-pair sums of the weights sqrt(I_i I_j), alone and, given
    coherence moduli, times |g_ij|, over the normalizer (n-1) * sum(I);
    computed on intensities rescaled by their maximum.  Takes checked
    intensities [..., n] and magnitudes() arrays [..., n, n].

    The rescaling is exact for the limit cases: equal intensities become
    exactly 1.0 each, so the weighted sums divide out exactly and the
    distinguishability limits land on 0 and 1 at double precision.
    """
    n = inten.shape[-1]
    r = inten / inten.max(axis=-1, keepdims=True)
    pair = np.sqrt(r[..., :, None] * r[..., None, :])
    _set_diagonal(pair, 0.0)
    norm = (n - 1) * r.sum(axis=-1)
    s = _matrix_sums(pair) / norm
    if mag is None:
        return _PairSums(s)
    return _PairSums(s, _matrix_sums(pair * mag) / norm)


def _checked(intensities, coh: CoherenceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """One instance's checked intensities and stored coherence matrix."""
    inten = intensity_vector(intensities)
    if coh.n != inten.size:
        raise ValueError(f"coherence matrix size {coh.n} does not match {inten.size} slits")
    return inten, coh.entries


def visibility_analytic(intensities, coh: CoherenceMatrix) -> float:
    """Corrected visibility: intensity-weighted average of coherence moduli,
    (1/(n-1)) * sum_{i != j} sqrt(I_i I_j) |g_ij| / sum_k I_k.

    For n=2 this reduces to the traditional fringe visibility
    |g_12| * 2*sqrt(I_1 I_2)/(I_1 + I_2); for equal intensities it equals
    the n-point degree of coherence.
    """
    inten, g = _checked(intensities, coh)
    return float(_pair_sums(inten, _magnitudes(g)).v_c)


def distinguishability(intensities) -> float:
    """Path distinguishability D = sqrt(1 - s^2), where s is the normalized
    ordered-pair sum of sqrt(I_i I_j).

    1 when a single slit is open, 0 for equal intensities; reduces to
    |I_1 - I_2|/(I_1 + I_2) for two slits.
    """
    return float(_pair_sums(intensity_vector(intensities)).d)


def distinguishability_prime(intensities) -> float:
    """Simpler path distinguishability D' = 1 - s; for two slits equals
    (sqrt(I_1) - sqrt(I_2))^2 / (I_1 + I_2).  Never exceeds D."""
    return float(_pair_sums(intensity_vector(intensities)).d_prime)


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
    return BeamDensityMatrix(n=inten.size, rho=_density(inten, *mutual_intensity(inten, coh)))


def _density(inten: np.ndarray, a_re: np.ndarray, a_im: np.ndarray) -> np.ndarray:
    """rho = A / sum_k I_k for a stack of mutual intensities A, divided part
    by part in real arithmetic."""
    total = inten.sum(axis=-1)[..., None, None]
    return _complex(a_re / total, a_im / total)


def quantum_coherence(density: BeamDensityMatrix) -> float:
    """l1-style coherence of a density matrix: (1/(n-1)) sum_{i != j} |rho_ij|.

    For the beam-induced density matrix this equals the corrected visibility
    V_C, reached by a different rounding route: |rho_ij| is taken after the
    entries of rho are formed, V_C weights the moduli |g_ij| by rescaled
    intensities, so the two agree to rounding, not bit for bit."""
    return float(_quantum_coherence(density.rho))


def _quantum_coherence(rho: np.ndarray) -> np.ndarray:
    """quantum_coherence() of a stack of density matrices [..., n, n]."""
    mag = np.hypot(rho.real, rho.imag)
    _set_diagonal(mag, 0.0)
    return _matrix_sums(mag) / (rho.shape[-1] - 1)


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
    return _reports(*_checked(intensities, coh))[0]


def _reports(inten: np.ndarray, g: np.ndarray) -> list[DualityReport]:
    """duality_report() of every instance of a stack, in C order: checked
    intensities [..., n] and stored coherence matrices [..., n, n]."""
    mag = _magnitudes(g)
    sums = _pair_sums(inten, mag)
    d, d_prime, v_c = sums.d, sums.d_prime, sums.v_c
    pyth_lhs = d * d + v_c * v_c
    lin_lhs = d_prime + v_c
    gamma_n = _degree_of_coherence(mag)
    c = _quantum_coherence(_density(inten, *_mutual_intensity(inten, g)))
    rows = zip(*(np.ravel(a).tolist() for a in (v_c, d, d_prime, gamma_n, c, pyth_lhs, lin_lhs)))
    tol = 1.0 + INEQUALITY_TOL
    return [DualityReport(g.shape[-1], *row, row[-2] <= tol, row[-1] <= tol) for row in rows]
