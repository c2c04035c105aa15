import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duality_lab as dl
from duality_lab.coherence import (
    DiagonalNotUnit,
    NotFinite,
    NotHermitian,
    NotPositiveSemidefinite,
    TooSmall,
)
from duality_lab.scenario import ScenarioError, load_matrix


def test_identity_valid_and_fully_incoherent():
    coh = dl.validate(np.eye(3))
    assert coh.n == 3
    assert dl.degree_of_coherence(coh) == 0.0


def test_all_ones_valid_and_fully_coherent():
    coh = dl.validate(np.ones((5, 5)))
    assert dl.degree_of_coherence(coh) == 1.0


def test_modulus_above_one_rejected():
    m = np.eye(3, dtype=complex)
    m[0, 1] = m[1, 0] = 1.2
    with pytest.raises(NotPositiveSemidefinite):
        dl.validate(m)


def test_single_slit_rejected():
    with pytest.raises(TooSmall):
        dl.validate(np.eye(1))


def test_non_hermitian_rejected():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 0.5j
    m[1, 0] = 0.5j  # conj would be -0.5j
    with pytest.raises(NotHermitian):
        dl.validate(m)


def test_bad_diagonal_rejected():
    m = np.eye(2, dtype=complex)
    m[1, 1] = 0.9
    with pytest.raises(DiagonalNotUnit):
        dl.validate(m)


def test_indefinite_matrix_rejected():
    # moduli fine individually, but the triple is not jointly realizable
    m = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(NotPositiveSemidefinite):
        dl.validate(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_rejected(bad):
    # a NaN slips past every tolerance comparison, so it is rejected by name
    m = np.eye(3, dtype=complex)
    m[0, 2] = m[2, 0] = bad
    with pytest.raises(NotFinite, match=r"g\[0,2\]"):
        dl.validate(m)


def test_non_square_rejected():
    with pytest.raises(dl.CoherenceMatrixError):
        dl.validate(np.ones((2, 3)))


def test_from_modes_identical_rows_fully_coherent():
    decomp = dl.ModeDecomposition(np.tile([1.0 + 2.0j, 0.5], (4, 1)))
    coh = dl.from_modes(decomp)
    assert np.allclose(np.abs(coh.entries), 1.0)
    assert dl.degree_of_coherence(coh) == 1.0


def test_from_modes_orthogonal_rows_incoherent():
    coh = dl.from_modes(dl.ModeDecomposition(np.eye(3) * 2.0))
    assert np.allclose(coh.entries, np.eye(3))


def test_orthogonal_polarizations_kill_coherence():
    # identical scalar modes, crossed Jones states
    decomp = dl.ModeDecomposition(np.ones((2, 1)))
    pols = dl.PolarizationSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    coh = dl.from_modes(decomp, pols)
    assert coh.entries[0, 1] == 0.0
    assert coh.entries[1, 0] == 0.0


def test_polarization_overlap_scales_coherence():
    decomp = dl.ModeDecomposition(np.ones((2, 1)))
    s = np.sqrt(0.5)
    pols = dl.PolarizationSet(np.array([[1.0, 0.0], [s, s]]))
    coh = dl.from_modes(decomp, pols)
    assert abs(abs(coh.entries[0, 1]) - s) < 1e-12


def test_polarization_requires_unit_norm():
    with pytest.raises(ValueError):
        dl.PolarizationSet(np.array([[1.0, 1.0], [1.0, 0.0]]))


def test_zero_norm_mode_row_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        dl.ModeDecomposition(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_from_modes_polarization_count_mismatch():
    decomp = dl.ModeDecomposition(np.ones((3, 2)))
    pols = dl.PolarizationSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        dl.from_modes(decomp, pols)


def test_random_coherence_deterministic():
    a = dl.random_coherence(4, 3, seed=99)
    b = dl.random_coherence(4, 3, seed=99)
    assert a.entries.tobytes() == b.entries.tobytes()
    assert a.to_json() == b.to_json()


def test_random_coherence_rank_one_fully_coherent():
    for seed in range(10):
        coh = dl.random_coherence(5, 1, seed=seed)
        mag = np.abs(coh.entries)
        assert np.allclose(mag, 1.0, atol=1e-12)


def test_random_coherence_ensemble_valid():
    # eigenvalue check over a generated ensemble: every instance validates
    # and full-rank instances have strictly sub-unit off-diagonal moduli
    for seed in range(1000):
        coh = dl.random_coherence(4, 4, seed=seed)
        revalidated = dl.validate(coh.entries)
        off = np.abs(revalidated.entries[~np.eye(4, dtype=bool)])
        assert np.all(off < 1.0)
        gn = dl.degree_of_coherence(coh)
        assert 0.0 <= gn <= 1.0


def test_random_coherence_bad_args():
    with pytest.raises(TooSmall):
        dl.random_coherence(1, 2, seed=0)
    with pytest.raises(ValueError):
        dl.random_coherence(3, 0, seed=0)


def test_degree_of_coherence_uniform_moduli():
    m = np.full((3, 3), 0.5, dtype=complex)
    np.fill_diagonal(m, 1.0)
    assert dl.degree_of_coherence(dl.validate(m)) == 0.5


def test_rank_one_modes_give_unit_degree():
    rng = np.random.default_rng(1)
    decomp = dl.ModeDecomposition(rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)))
    assert dl.degree_of_coherence(dl.from_modes(decomp)) == 1.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_degree_of_coherence_permutation_invariant(seed, n):
    coh = dl.random_coherence(n, n, seed=seed)
    perm = np.random.default_rng(seed).permutation(n)
    permuted = dl.validate(coh.entries[np.ix_(perm, perm)])
    assert abs(dl.degree_of_coherence(coh) - dl.degree_of_coherence(permuted)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_degree_of_coherence_depends_only_on_moduli(seed, n):
    coh = dl.random_coherence(n, n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    # congruence phases keep the matrix realizable
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    rot = dl.validate(coh.entries * np.outer(phase, phase.conj()))
    assert abs(dl.degree_of_coherence(coh) - dl.degree_of_coherence(rot)) < 1e-14
    # arbitrary Hermitian-consistent phases change moduli by nothing either
    theta = rng.uniform(-np.pi, np.pi, (n, n))
    theta = theta - theta.T
    twisted = dl.CoherenceMatrix(n=n, entries=coh.entries * np.exp(1j * theta))
    assert abs(dl.degree_of_coherence(coh) - dl.degree_of_coherence(twisted)) < 1e-14


def test_json_round_trip_bit_faithful(tmp_path):
    path = tmp_path / "matrix.json"
    for seed in range(20):
        coh = dl.random_coherence(5, 3, seed=seed)
        path.write_text(coh.to_json())
        back = load_matrix(path)
        assert back.entries.tobytes() == coh.entries.tobytes()
        assert back.n == coh.n


def test_load_matrix_shape_mismatch(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text('{"n": 3, "re": [[1.0]], "im": [[0.0]]}')
    with pytest.raises(ScenarioError, match=r"top level\.re: expected shape \(3, 3\), got \(1, 1\)"):
        load_matrix(path)


def test_entries_are_immutable():
    coh = dl.random_coherence(3, 3, seed=0)
    with pytest.raises(ValueError):
        coh.entries[0, 1] = 0.0
