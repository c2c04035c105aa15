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
    _magnitudes,
    _unit_gram,
)
from duality_lab.engine import mutual_intensity
from duality_lab.scenario import ScenarioError, load_matrix
from exact_reference import MODULUS_U, gamma


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


@pytest.mark.filterwarnings("error")
def test_near_float_limit_refused_without_warning():
    # g_ij - conj(g_ji) once overflowed with a RuntimeWarning before the
    # refusal; the overflowing deviation is inf and still refused
    with pytest.raises(NotHermitian, match="inf"):
        dl.validate([[1.0, 1e308], [-1e308, 1.0]])


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


def _nearly_valid(seed):
    # a realizable matrix made Hermitian and unit-diagonal only within the
    # 1e-10 validation tolerances
    rng = np.random.default_rng(seed)
    m = np.array(dl.random_coherence(4, 5, seed=seed).entries)
    return m + 2e-11 * (rng.uniform(-1.0, 1.0, (4, 4)) + 1j * rng.uniform(-1.0, 1.0, (4, 4)))


@pytest.mark.parametrize("seed", range(5))
def test_validate_stores_exact_hermitian_part_with_unit_diagonal(seed):
    g = dl.validate(_nearly_valid(seed)).entries
    assert np.array_equal(g, g.conj().T)
    assert np.all(np.diag(g) == 1.0 + 0.0j)
    m = _nearly_valid(seed)
    assert np.array_equal(g, np.where(np.eye(4, dtype=bool), 1.0, 0.5 * (m + m.conj().T)))


@pytest.mark.parametrize("seed", range(5))
def test_validate_leaves_the_input_writable_and_unchanged(seed):
    m = _nearly_valid(seed)
    before = m.copy()
    dl.validate(m)
    assert m.flags.writeable
    assert m.tobytes() == before.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_mutual_intensity_of_the_stored_matrix_has_real_diagonal(seed):
    # Im A_ii = I_i Im g_ii with zero phase difference, exactly 0 without a fill
    coh = dl.validate(_nearly_valid(seed))
    phases = np.random.default_rng(seed).uniform(-3.0, 3.0, 4)
    _, a_im = mutual_intensity([1.0, 0.3, 2.5, 1e-3], coh, phases)
    assert np.all(np.diag(a_im) == 0.0)


def test_from_modes_identical_rows_fully_coherent():
    decomp = dl.ModeDecomposition(np.tile([1.0 + 2.0j, 0.5], (4, 1)))
    coh = dl.from_modes(decomp)
    assert np.allclose(np.abs(coh.entries), 1.0)
    assert dl.degree_of_coherence(coh) == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1e308, 1e-170], ids=["huge", "tiny"])
def test_from_modes_rows_near_float_limits(value):
    # rows whose norms over- and underflow once gave the identity and a
    # zero-norm error
    coh = dl.from_modes(dl.ModeDecomposition(np.full((2, 1), value)))
    assert np.array_equal(coh.entries, np.ones((2, 2)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.finfo(float).max, 1e-170], ids=["largest", "tiny"])
def test_polarized_rows_near_float_limits(value):
    # Jones components may exceed 1 by the 1e-12 norm tolerance
    pols = dl.PolarizationSet(np.array([[1.0 + 4e-13, 0.0], [1.0 + 4e-13, 0.0]]))
    coh = dl.from_modes(dl.ModeDecomposition(np.full((2, 1), value)), pols)
    assert np.array_equal(coh.entries, np.ones((2, 2)))


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


@pytest.mark.filterwarnings("error")
def test_polarization_overflowing_norm_refused_without_warning():
    with pytest.raises(ValueError, match="unit norm"):
        dl.PolarizationSet(np.array([[1e308, 0.0], [1.0, 0.0]]))


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


def gram_bound(r: int) -> float:
    """Largest deviation of the real or imaginary part of one entry of a
    double Gram product of unit-normalized complex rows of length r from the
    exact Gram product of the exactly normalized rows, for any summation
    order, with or without fused multiply-adds.

    A row norm sums 2r squares (relative error gamma_2r), its sqrt at most
    halves that and adds u, and a part of a unit row is one division by it,
    or a multiply by its reciprocal (2u): each part of a computed unit row
    is within e = gamma_(2r+3) of the exact one, relatively.  One part of
    u_i u_j^H sums 2r real products, so it rounds by at most gamma_2r times
    sum_k |u_ik| |u_jk| <= |u_i| |u_j| <= (1 + e)^2 (Cauchy-Schwarz), and the
    perturbed rows move it by at most (2e + e^2) sum_k |u_ik| |u_jk| <= 2e + e^2.
    """
    e = gamma(2 * r + 3)
    return gamma(2 * r) * (1 + e) ** 2 + 2 * e + e * e


@pytest.mark.parametrize("n, r", [(2, 1), (5, 3), (16, 8), (12, 12), (40, 5)])
def test_unit_gram_is_the_blas_product_within_its_rounding_bound(n, r):
    # the deleted route, BLAS on numpy's complex norm and division, stays
    # here as the reference: both routes obey gram_bound, so they differ by
    # at most twice it.  Rows of widely different scales, one stack of four.
    rng = np.random.default_rng(1600 + n)
    scale = 2.0 ** rng.integers(-60, 60, (4, n, 1))
    rows = scale * (rng.standard_normal((4, n, r)) + 1j * rng.standard_normal((4, n, r)))
    unit = rows / np.linalg.norm(rows, axis=-1)[..., None]
    reference = unit @ unit.conj().swapaxes(-1, -2)
    g = _unit_gram(rows)
    bound = 2 * gram_bound(r)
    assert np.max(np.abs(g.real - reference.real)) <= bound
    assert np.max(np.abs(g.imag - reference.imag)) <= bound


@pytest.mark.parametrize("kind", ["coherence", "wide_range"])
def test_magnitudes_are_numpy_abs_within_their_rounding_bound(kind):
    # the deleted route, numpy's complex modulus, stays here as the
    # reference.  Each modulus is within MODULUS_U u of |g_ij| on either
    # route, and the clip at 1 widens no gap.  The wide range reaches moduli
    # of 2^-1000, where sqrt(re^2 + im^2) would underflow to 0.
    rng = np.random.default_rng(1601)
    if kind == "coherence":
        g = np.array([dl.random_coherence(8, 1 + k % 8, seed=k).entries for k in range(32)])
    else:
        mod = 2.0 ** rng.uniform(-1000.0, 0.5, (32, 8, 8))
        phase = rng.uniform(-np.pi, np.pi, mod.shape)
        g = mod * np.cos(phase) + 1j * (mod * np.sin(phase))
    reference = np.abs(g)
    expected = np.minimum(reference, 1.0)
    k = np.arange(8)
    expected[..., k, k] = 0.0
    assert np.all(np.abs(_magnitudes(g) - expected) <= gamma(2 * MODULUS_U) * reference)
