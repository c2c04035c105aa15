"""Normalized mutual-coherence matrices for multislit beams.

The coherence matrix collects the pairwise normalized field correlations
g_ij between n slits: unit diagonal, Hermitian, positive semidefinite and
all moduli at most 1.  Physically realizable matrices are Gram matrices of
field modes, which is also how random test instances are generated here.
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
        mag = np.minimum(np.abs(self.entries), 1.0)
        np.fill_diagonal(mag, 0.0)
        return mag

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
    """Check a raw complex matrix and wrap it as a CoherenceMatrix.

    Rejections:
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
    n = m.shape[0]
    if n < 2:
        raise TooSmall(f"need at least 2 slits, got n={n}")
    finite = np.isfinite(m)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NotFinite(f"g[{i},{j}] = {m[i, j]} is not finite")
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > HERMITIAN_TOL:
        raise NotHermitian(f"max |g_ij - conj(g_ji)| = {herm_dev:.3e}")
    diag_dev = float(np.max(np.abs(np.diag(m) - 1.0)))
    if diag_dev > DIAGONAL_TOL:
        raise DiagonalNotUnit(f"max |g_ii - 1| = {diag_dev:.3e}")
    mag_max = float(np.max(np.abs(m)))
    if mag_max > 1.0 + MODULUS_TOL:
        raise NotPositiveSemidefinite(f"off-diagonal modulus {mag_max:.6f} exceeds 1")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] < PSD_FLOOR:
        raise NotPositiveSemidefinite(f"smallest eigenvalue {eigs[0]:.3e}")
    return CoherenceMatrix(n=n, entries=m)


@dataclass(frozen=True)
class ModeDecomposition:
    """Per-slit complex mode amplitudes; row i spans the field at slit i.

    The Gram matrix of the normalized rows is a valid coherence matrix, so
    this is the constructive route to an arbitrary realizable instance (and
    the sampling basis used by the Monte-Carlo oracle).
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2:
            raise ValueError(f"expected an (n, r) array, got shape {v.shape}")
        norms = np.linalg.norm(v, axis=1)
        if np.any(norms == 0.0):
            bad = int(np.flatnonzero(norms == 0.0)[0])
            raise ValueError(f"zero-norm mode row at slit {bad}")
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
        norms = np.linalg.norm(v, axis=1)
        if np.max(np.abs(norms - 1.0)) > POLARIZATION_NORM_TOL:
            raise ValueError("polarization vectors must have unit norm")
        object.__setattr__(self, "vectors", v)
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def _gram(rows: np.ndarray, factor: np.ndarray | None = None) -> CoherenceMatrix:
    # Normalized overlaps of the rows, times an optional elementwise factor,
    # with Hermitian/diagonal rounding dust removed before validation.
    unit = rows / np.linalg.norm(rows, axis=1)[:, None]
    g = unit @ unit.conj().T
    if factor is not None:
        g = g * factor
    g = 0.5 * (g + g.conj().T)
    np.fill_diagonal(g, 1.0)
    return validate(g)


def from_modes(
    decomp: ModeDecomposition, pols: PolarizationSet | None = None
) -> CoherenceMatrix:
    """Coherence matrix of a mode decomposition, optionally with polarization.

    g_ij is the normalized overlap of rows i and j of the decomposition,
    multiplied by the polarization overlap when Jones states are supplied
    (orthogonal polarizations kill the coherence of otherwise identical
    modes).  The overlap convention matches the field correlation <E_i E_j*>,
    so the result is exactly what the Monte-Carlo ensemble realizes.
    """
    if pols is None:
        return _gram(decomp.vectors)
    if pols.n != decomp.n:
        raise ValueError(f"polarization count {pols.n} does not match mode rows {decomp.n}")
    return _gram(decomp.vectors, pols.vectors @ pols.vectors.conj().T)


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
    rng = np.random.default_rng(seed)
    return _gram(rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))


def degree_of_coherence(coh: CoherenceMatrix) -> float:
    """Average off-diagonal modulus over all n(n-1) ordered slit pairs.

    0 for fully incoherent light (identity matrix), 1 for fully coherent
    light (all moduli 1); matches the corrected visibility when the slit
    intensities are equal.
    """
    n = coh.n
    return float(coh.magnitudes().sum() / (n * (n - 1)))
