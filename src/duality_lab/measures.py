"""Closed-form visibility, path distinguishability, and the duality relations.

All pair sums run over ordered pairs (i, j), i != j, normalized by 1/(n-1),
so every quantity lands in [0, 1].  Two relations are checked: the
Pythagorean form D^2 + V_C^2 <= 1 and the linear form D' + V_C <= 1, both
saturated exactly when every pair with nonzero intensity product is fully
coherent.  The report holds each left-hand side and whether it stays within
INEQUALITY_TOL of 1; in exact arithmetic they equal 1 - s^2 + V_C^2 and
1 - s + V_C, which the tests recompute at 50 digits from the same inputs.

Every measure is written once, as a private core over leading batch axes
(intensities [..., n], coherence matrices [..., n, n]).  _columns, the
column core, returns the measures of a whole stack as one list per report
field: the sweep formats its rows straight from those lists, _reports
builds the DualityReports of a stack from them, and the public one-instance
functions are the no-batch case, with the same bits.  _density builds the
density matrix rho_ij = sqrt(I_i I_j) g_ij / sum_k I_k of C from g, with no
phases.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from duality_lab.coherence import (
    CoherenceMatrix,
    _check_hermitian,
    _check_psd,
    _complex,
    _degree_of_coherence,
    _freeze,
    _magnitudes,
    _matrix_sums,
    _set_diagonal,
)
# ZeroTotalIntensity comes from the intensity rule and stays importable from here
from duality_lab.engine import ZeroTotalIntensity, intensity_vector  # noqa: F401

INEQUALITY_TOL = 1e-12
TRACE_TOL = 1e-10  # BeamDensityMatrix refuses |tr rho - 1| above this


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
    sqrt(I_i I_j) g_ij / sum_k I_k, stored as a read-only complex copy;
    n is read from rho.  Construction refuses, with a ValueError naming the
    property, a rho that is not square, fewer than 2 slits
    (quantum_coherence divides by n - 1), a rho that validate's checks find
    not finite, not Hermitian or with an eigenvalue below PSD_FLOOR, and
    one not of unit trace within TRACE_TOL."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix: not square, shape {rho.shape}")
        if rho.shape[0] < 2:
            raise ValueError(f"density matrix: need at least 2 slits, got n={rho.shape[0]}")
        _check_hermitian(rho, "rho")
        with np.errstate(over="ignore"):  # an overflowing trace is inf, refused
            trace = float(np.trace(rho).real)
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix: not of unit trace, trace {trace!r}")
        _check_psd(rho)
        _freeze(self, rho=rho)

    @property
    def n(self) -> int:
        return self.rho.shape[0]


def density_from_beams(intensities, coh: CoherenceMatrix) -> BeamDensityMatrix:
    """Build the path-basis density matrix from slit intensities and coherence."""
    return BeamDensityMatrix(_density(*_checked(intensities, coh)))


def _density(inten: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The density matrices rho of a stack, each part formed and divided by
    sum_k I_k in real arithmetic, with rho_ii = I_i / sum_k I_k."""
    amps = np.sqrt(inten)
    weight = amps[..., :, None] * amps[..., None, :]
    re, im = weight * g.real, weight * g.imag
    _set_diagonal(re, inten)
    total = inten.sum(axis=-1)[..., None, None]
    return _complex(re / total, im / total)


def quantum_coherence(density: BeamDensityMatrix) -> float:
    """l1-style coherence of a density matrix: (1/(n-1)) sum_{i != j} |rho_ij|.

    For the beam-induced density matrix this equals the corrected visibility
    V_C, reached by a different rounding route: |rho_ij| is taken after the
    entries of rho are formed, V_C weights the moduli |g_ij| by rescaled
    intensities, so the two agree to rounding, not bit for bit.

    On a matrix from outside the program, validate admits |g_ij| up to
    1 + coherence.MODULUS_TOL, and rho uses g as stored while V_C clips
    |g_ij| at 1.  So, up to rounding, 0 <= C - V_C <= MODULUS_TOL * s and
    C <= (1 + MODULUS_TOL) s <= 1 + MODULUS_TOL, with s = 1 - D' the
    normalized ordered-pair sum of sqrt(I_i I_j)."""
    return float(_quantum_coherence(density.rho))


def _quantum_coherence(rho: np.ndarray) -> np.ndarray:
    """quantum_coherence() of a stack of density matrices [..., n, n]: the
    sum of the off-diagonal moduli from coherence._magnitudes, whose clip at
    1 leaves them as they are, since |rho_ij| <= sqrt(rho_ii rho_jj) <= 1/2."""
    return _matrix_sums(_magnitudes(rho)) / (rho.shape[-1] - 1)


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


class _Columns(NamedTuple):
    """The measures and left-hand sides of every instance of a stack, one
    list of floats per DualityReport field, in C order."""

    v_c: list[float]
    d: list[float]
    d_prime: list[float]
    gamma_n: list[float]
    c: list[float]
    pyth_lhs: list[float]
    lin_lhs: list[float]


def _columns(inten: np.ndarray, g: np.ndarray) -> _Columns:
    """The column core of _reports: checked intensities [..., n] and stored
    coherence matrices [..., n, n] in, one list per measure out."""
    mag = _magnitudes(g)
    sums = _pair_sums(inten, mag)
    d, d_prime, v_c = sums.d, sums.d_prime, sums.v_c
    pyth_lhs = d * d + v_c * v_c
    lin_lhs = d_prime + v_c
    gamma_n = _degree_of_coherence(mag)
    c = _quantum_coherence(_density(inten, g))
    return _Columns(*(np.ravel(a).tolist() for a in (v_c, d, d_prime, gamma_n, c, pyth_lhs, lin_lhs)))


def _holds(lhs: float) -> bool:
    """Whether a relation's left-hand side stays within INEQUALITY_TOL of 1;
    False for NaN."""
    return lhs <= 1.0 + INEQUALITY_TOL


def _report(n: int, row) -> DualityReport:
    """The report of one instance of n slits from its row of the columns."""
    return DualityReport(n, *row, _holds(row[-2]), _holds(row[-1]))


def _reports(inten: np.ndarray, g: np.ndarray) -> list[DualityReport]:
    """duality_report() of every instance of a stack, in C order: checked
    intensities [..., n] and stored coherence matrices [..., n, n]."""
    return [_report(g.shape[-1], row) for row in zip(*_columns(inten, g))]
