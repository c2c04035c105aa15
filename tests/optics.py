"""Optics fixtures shared by the tests: the reference geometry (500 nm
light, a 1 m screen distance, 50 um slit spacing, so a 0.01 m fringe
width W) and two coherence matrices."""

import numpy as np

import duality_lab as dl

WAVELENGTH = 500e-9
DISTANCE = 1.0
SPACING = 50e-6
W = WAVELENGTH * DISTANCE / SPACING  # 0.01 m


def coherence_with(g, n=2):
    m = np.ones((n, n), dtype=complex) * g
    np.fill_diagonal(m, 1.0)
    return dl.validate(m)


def aligned_coherence(n, seed):
    # Gram matrix of nonnegative rows: real nonnegative entries, so every
    # pair phase is zero and all cosines peak together at x = 0
    rng = np.random.default_rng(seed)
    return dl.from_modes(dl.ModeDecomposition(np.abs(rng.standard_normal((n, n)))))
