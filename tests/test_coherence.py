import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duality_lab as dl
from duality_lab import coherence
from duality_lab.coherence import (
    CoherenceMatrixError,
    DiagonalNotUnit,
    MODULUS_TOL,
    NotFinite,
    NotHermitian,
    NotPositiveSemidefinite,
    PSD_FLOOR,
    TooSmall,
    _gram_certified,
    _hermitian_part,
    _magnitudes,
    _random_grams,
    _unit_gram,
)
from duality_lab.engine import mutual_intensity
from duality_lab.scenario import MAX_SWEEP_N, ScenarioError, load_matrix
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
    slits = dl.SlitArray(intensities=[1.0, 0.3, 2.5, 1e-3], spacing=1e-4, phases=phases)
    _, a_im = mutual_intensity(slits, coh)
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


@pytest.mark.parametrize(
    "value", [np.nan, np.inf, complex(1.0, np.nan)], ids=["nan", "inf", "nan-imag"]
)
def test_non_finite_polarization_refused_by_slit(value):
    # a nan norm once passed the unit-norm check, and validate() refused the
    # Gram matrix later as "g[0,0] = (nan+nanj) is not finite"
    with pytest.raises(ValueError, match="unit norm: slit 1 has norm"):
        dl.PolarizationSet(np.array([[1.0, 0.0], [value, 0.0]]))


@pytest.mark.parametrize(
    "value", [np.nan, -np.inf, complex(np.inf, 1.0)], ids=["nan", "inf", "inf-real"]
)
def test_non_finite_mode_row_refused_by_slit(value):
    # these rows once constructed and were refused only as a non-finite g
    with pytest.raises(ValueError, match="non-finite mode entry at slit 2"):
        dl.ModeDecomposition(np.array([[1.0, 0.0], [0.5, 0.5], [1.0, value]]))


@pytest.mark.parametrize(
    "make, shape",
    [
        (dl.ModeDecomposition, (3,)),
        (dl.ModeDecomposition, (2, 2, 1)),
        (dl.PolarizationSet, (2,)),
        (dl.PolarizationSet, (2, 1, 2)),
    ],
    ids=["modes-1d", "modes-3d", "polarizations-1d", "polarizations-3d"],
)
def test_rows_must_be_a_2d_array(make, shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        make(np.ones(shape))


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


@pytest.mark.parametrize("n, rank, seed", [(2, 1, 0), (3, 2, 5), (5, 1, 17), (6, 6, 42), (8, 3, 2**63 - 1)])
def test_random_coherence_takes_a_generator(n, rank, seed):
    # a Generator is drawn from as it is: the same matrix as its integer
    # seed, and it moves on by exactly one standard_normal((2, n, rank))
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    coh = dl.random_coherence(n, rank, rng)
    assert coh.entries.tobytes() == dl.random_coherence(n, rank, seed).entries.tobytes()
    twin.standard_normal((2, n, rank))
    assert rng.random() == twin.random()


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


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, 2.5, 0), "rank must be an integer, got 2.5"),
        ((3.0, 2, 0), "n must be an integer, got 3.0"),
        ((3, True, 0), "rank must be an integer, got True"),
        ((True, 2, 0), "n must be an integer, got True"),
        ((3, 2, 1.5), "seed must be an integer, got 1.5"),
        ((3, 2, False), "seed must be an integer, got False"),
    ],
)
def test_random_coherence_refuses_non_integers(args, message):
    # each once ended in a bare TypeError from numpy
    with pytest.raises(ValueError, match=message):
        dl.random_coherence(*args)


def test_random_coherence_takes_numpy_integers():
    coh = dl.random_coherence(np.int64(4), np.uint8(3), np.int32(9))
    assert coh.entries.tobytes() == dl.random_coherence(4, 3, 9).entries.tobytes()


def _validated_gram(rng, n, rank, count=()):
    # the dropped route, stays here as the reference: the raw Gram matrix of
    # the drawn rows through validate()'s checks and its stored Hermitian part
    z = rng.standard_normal((*count, 2, n, rank))
    rows = z[..., 0, :, :] + 1j * z[..., 1, :, :]  # exact: no draw is 0
    return _hermitian_part(_unit_gram(rows.real, rows.imag).entries)


def test_random_coherence_stores_what_validate_would():
    # the Gram matrix of unit rows is stored as formed, with diagonal 1; it
    # is the bytes validate() stores for it, whose checks it passes.  Seeds
    # alternate between integers and Generators.
    for n in range(2, 41):
        for rank in range(1, n + 3):
            seed = 100 * n + rank
            coh = dl.random_coherence(n, rank, seed if rank % 2 else np.random.default_rng(seed))
            expected = _validated_gram(np.random.default_rng(seed), n, rank)
            assert coh.entries.tobytes() == expected.tobytes(), (n, rank)


@pytest.mark.parametrize("n, rank", [(2, 1), (7, 3), (16, 18)])
def test_random_grams_of_a_stack_are_what_validate_would(n, rank):
    g = _random_grams(np.random.default_rng(2600 + n), n, rank, (5,))
    assert g.tobytes() == _validated_gram(np.random.default_rng(2600 + n), n, rank, (5,)).tobytes()
    rng = np.random.default_rng(2600 + n)  # member s is the (s+1)-th one-instance draw
    assert [m.tobytes() for m in g] == [dl.random_coherence(n, rank, rng).entries.tobytes() for _ in g]


@pytest.mark.parametrize("n, rank", [(MAX_SWEEP_N, 1), (128, 128)])
def test_random_coherence_is_psd_far_inside_the_floor(n, rank):
    # draws inside the Gram bound skip the PSD test, so the floor must hold
    # with room to spare at the sweep's largest n and at full rank
    lowest = np.linalg.eigvalsh(dl.random_coherence(n, rank, seed=n + rank).entries)[0]
    assert lowest >= PSD_FLOOR / 10


def _modes(rng, n, r, kind):
    rows = rng.standard_normal((n, r))
    return rows if kind == "real" else rows + 1j * rng.standard_normal((n, r))


def _jones(rng, n):
    p = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return dl.PolarizationSet(p / np.linalg.norm(p, axis=1)[:, None])


@pytest.mark.parametrize("polarized", [False, True], ids=["modes", "jones"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_from_modes_stores_what_validate_would(kind, polarized, monkeypatch):
    # the skipped route stays here as the reference: with the certificate
    # refused, validate() runs _hermitian_part(_unit_gram(...)) and its checks
    rng = np.random.default_rng(2700 + polarized)
    for n in (2, 3, 7, 16, 64, 128):
        for r in (1, 2, 3, 8):
            decomp = dl.ModeDecomposition(_modes(rng, n, r, kind))
            pols = _jones(rng, n) if polarized else None
            stored = dl.from_modes(decomp, pols).entries
            with monkeypatch.context() as m:
                m.setattr(coherence, "_gram_certified", lambda n, rank: False)
                expected = dl.from_modes(decomp, pols).entries
            assert stored.tobytes() == expected.tobytes(), (n, r)


@pytest.fixture
def psd_calls(monkeypatch):
    calls = []
    original = coherence._check_psd
    monkeypatch.setattr(coherence, "_check_psd", lambda h: calls.append(h.shape) or original(h))
    return calls


def test_gram_matrices_outside_the_bound_take_the_checks(psd_calls, monkeypatch):
    # full rank, so the smallest eigenvalues stay far above a floor near 0
    rng = np.random.default_rng(2701)
    decomp = dl.ModeDecomposition(_modes(rng, 3, 4, "complex"))
    certified = [dl.from_modes(decomp), dl.random_coherence(3, 4, seed=5)]
    stack = _random_grams(np.random.default_rng(6), 3, 4, (5,))
    assert psd_calls == []
    # a plain array never takes the certificate, though it is the same Gram matrix
    dl.validate(certified[0].entries)
    assert psd_calls == [(3, 3)]
    psd_calls.clear()
    monkeypatch.setattr(coherence, "PSD_FLOOR", -1e-18)
    assert not _gram_certified(3, 4)
    checked = [dl.from_modes(decomp), dl.random_coherence(3, 4, seed=5)]
    assert psd_calls == [(3, 3), (3, 3)]
    assert [c.entries.tobytes() for c in checked] == [c.entries.tobytes() for c in certified]
    assert _random_grams(np.random.default_rng(6), 3, 4, (5,)).tobytes() == stack.tobytes()
    assert psd_calls[2:] == [(5, 3, 3)]


def _largest_certified_rank(n):
    r = 1
    while _gram_certified(n, r + 1):
        r += 1
    return r


@pytest.mark.parametrize("route", ["from_modes", "random_coherence"])
def test_gram_bound_holds_at_the_largest_certified_size(route):
    # the sweep's largest n at the largest rank the bound admits: rank below
    # n, so g has n - r eigenvalues that are 0 in exact arithmetic
    n = MAX_SWEEP_N
    r = _largest_certified_rank(n)
    assert r < n and n * r > 100079 - n
    assert _gram_certified(1, 100079) and not _gram_certified(1, 100080)  # the documented range
    if route == "from_modes":
        g = dl.from_modes(dl.ModeDecomposition(_modes(np.random.default_rng(2702), n, r, "complex")))
    else:
        g = dl.random_coherence(n, r, seed=2703)
    lowest = np.linalg.eigvalsh(g.entries)[0]
    assert lowest >= PSD_FLOOR
    assert np.max(np.abs(g.entries)) <= 1.0 + MODULUS_TOL
    assert np.array_equal(g.entries, g.entries.conj().T)


def test_from_modes_single_row_rejected():
    with pytest.raises(TooSmall):
        dl.from_modes(dl.ModeDecomposition(np.ones((1, 2))))


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
    twisted = dl.CoherenceMatrix(coh.entries * np.exp(1j * theta))
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


def test_slit_count_is_read_from_the_entries():
    # n was once a second argument: n=2 beside 3 x 3 entries built, and the
    # report then failed in numpy broadcasting
    assert dl.CoherenceMatrix(np.eye(3, dtype=complex)).n == 3
    with pytest.raises(TypeError):
        dl.CoherenceMatrix(n=2, entries=np.eye(3, dtype=complex))


@pytest.mark.parametrize(
    "entries, shape",
    [(np.ones((2, 3), dtype=complex), r"\(2, 3\)"), (np.ones(3), r"\(3,\)")],
    ids=["2x3", "1-d"],
)
def test_entries_must_be_one_square_matrix(entries, shape):
    # both once built, with n 2 and 3, and the 2 x 3 one then failed in
    # duality_report with numpy's IndexError
    with pytest.raises(CoherenceMatrixError, match=f"expected a square matrix, got shape {shape}"):
        dl.CoherenceMatrix(entries)


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
    g = _unit_gram(rows.real, rows.imag).entries
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
