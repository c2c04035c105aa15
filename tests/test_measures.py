import json
import math
import warnings
from dataclasses import asdict
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duality_lab as dl
from duality_lab.coherence import NotPositiveSemidefinite, _hermitian_part
from duality_lab.measures import ZeroTotalIntensity, _reports

from exact_reference import EPS, bounds, deviations, exact


def coherence_with(g, n=2):
    m = np.ones((n, n), dtype=complex) * g
    np.fill_diagonal(m, 1.0)
    return dl.validate(m)


def naive_visibility(intensities, coh):
    # independent reference: direct double loop over ordered pairs, raw
    # intensities, no rescaling tricks
    I = list(intensities)
    n = len(I)
    total = sum(I)
    acc = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                acc += math.sqrt(I[i] * I[j]) / total * abs(coh.entries[i, j])
    return acc / (n - 1)


def naive_weight_fraction(intensities):
    I = list(intensities)
    n = len(I)
    total = sum(I)
    acc = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                acc += math.sqrt(I[i] * I[j]) / total
    return acc / (n - 1)


def checked_report(intensities, coh):
    """The duality report and its 50-digit reference, after checking every
    report field against the reference within its derived bound."""
    rep, ref = dl.duality_report(intensities, coh), exact(intensities, coh)
    limits = bounds(coh.n, ref)
    for key, dev, limit in zip(limits._fields, deviations(rep, ref), limits):
        assert dev <= limit, (key, dev / EPS, limit / EPS)
    return rep, ref


def random_instance(seed, n_max=8):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    rank = int(rng.integers(1, n + 1))
    coh = dl.random_coherence(n, rank, seed=int(rng.integers(0, 2**63)))
    intensities = rng.dirichlet(np.ones(n)) * rng.uniform(0.1, 10.0)
    return intensities, coh


class TestVisibility:
    def test_two_slit_reduction(self):
        for g in (0.0, 0.3, 1.0):
            for i1, i2 in ((1.0, 1.0), (4.0, 1.0), (0.2, 3.3)):
                vc = dl.visibility_analytic([i1, i2], coherence_with(g))
                assert vc == pytest.approx(g * 2.0 * math.sqrt(i1 * i2) / (i1 + i2), abs=1e-14)

    def test_equal_intensities_match_degree_of_coherence(self):
        coh = coherence_with(0.5, n=3)
        assert dl.visibility_analytic([2.0, 2.0, 2.0], coh) == 0.5
        rng_coh = dl.random_coherence(5, 3, seed=4)
        assert dl.visibility_analytic(np.full(5, 0.7), rng_coh) == dl.degree_of_coherence(rng_coh)

    def test_dark_slit_hand_value(self):
        # only the (1,2) pair survives: (1/2) * 2 * (1/2) * 1 = 0.5
        m = np.eye(3, dtype=complex)
        m[0, 1] = m[1, 0] = 1.0
        m[0, 2] = m[2, 0] = 0.3
        m[1, 2] = m[2, 1] = 0.3
        assert dl.visibility_analytic([1.0, 1.0, 0.0], dl.validate(m)) == pytest.approx(0.5, abs=1e-14)

    def test_matches_naive_loop(self):
        for seed in range(200):
            intensities, coh = random_instance(seed)
            vc = dl.visibility_analytic(intensities, coh)
            assert vc == pytest.approx(naive_visibility(intensities, coh), abs=1e-12)

    def test_zero_total_intensity(self):
        with pytest.raises(ZeroTotalIntensity):
            dl.visibility_analytic([0.0, 0.0], coherence_with(0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            dl.visibility_analytic([1.0, 1.0, 1.0], coherence_with(0.5))


class TestDistinguishability:
    def test_single_open_slit_exact(self):
        assert dl.distinguishability([1.0, 0.0, 0.0]) == 1.0
        assert dl.distinguishability_prime([1.0, 0.0, 0.0]) == 1.0

    def test_equal_intensities_exact_zero(self):
        for n in (2, 3, 5, 8):
            for c in (1.0, 0.3, 2.5, 1e-3, 7.77):
                assert dl.distinguishability([c] * n) == 0.0
                assert dl.distinguishability_prime([c] * n) == 0.0

    def test_two_one_zero_hand_value(self):
        assert dl.distinguishability([1.0, 1.0, 0.0]) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)

    def test_two_slit_reduction(self):
        for i1, i2 in ((4.0, 1.0), (1.0, 9.0), (0.5, 0.5), (2.0, 1e-6)):
            d = dl.distinguishability([i1, i2])
            assert d == pytest.approx(abs(i1 - i2) / (i1 + i2), abs=1e-12)

    def test_prime_two_slit_forms(self):
        # both printed two-slit forms agree: 1 - 2 sqrt(I1 I2)/(I1+I2)
        # and (sqrt(I1) - sqrt(I2))^2/(I1+I2)
        dp = dl.distinguishability_prime([4.0, 1.0])
        assert dp == pytest.approx(0.2, abs=1e-14)
        assert dp == pytest.approx(1.0 - 2.0 * 2.0 / 5.0, abs=1e-14)
        assert dp == pytest.approx((2.0 - 1.0) ** 2 / 5.0, abs=1e-14)

    def test_matches_naive_loop(self):
        for seed in range(200):
            intensities, _ = random_instance(seed)
            s = naive_weight_fraction(intensities)
            assert dl.distinguishability(intensities) == pytest.approx(
                math.sqrt(max(0.0, 1.0 - s * s)), abs=1e-12
            )
            assert dl.distinguishability_prime(intensities) == pytest.approx(1.0 - s, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_prime_never_exceeds_d(self, seed):
        intensities, _ = random_instance(seed)
        assert dl.distinguishability_prime(intensities) <= dl.distinguishability(intensities) + 1e-15


class TestMichelson:
    def test_values(self):
        assert dl.michelson(4.0, 0.0) == 1.0
        assert dl.michelson(1.0, 1.0) == 0.0
        assert dl.michelson(3.0, 1.0) == 0.5

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            dl.michelson(1.0, 2.0)
        with pytest.raises(ValueError):
            dl.michelson(0.0, 0.0)
        with pytest.raises(ValueError):
            dl.michelson(1.0, -0.5)


class TestIdentities:
    def test_full_coherence_saturates(self):
        for n in (2, 4, 7):
            rep, ref = checked_report(np.arange(1, n + 1, dtype=float), coherence_with(1.0, n=n))
            assert abs(rep.pyth_lhs - 1.0) < 1e-12
            assert abs(rep.lin_lhs - 1.0) < 1e-12
            assert abs(ref.pyth - 1) < 1e-45 and abs(ref.lin - 1) < 1e-45

    def test_identity_coherence_leaves_distinguishability(self):
        I = [1.0, 0.2, 0.5]
        rep, _ = checked_report(I, dl.validate(np.eye(3)))
        assert rep.v_c == 0.0
        assert rep.d == dl.distinguishability(I)
        assert rep.pyth_lhs == rep.d * rep.d
        assert rep.pyth_lhs <= 1.0

    def test_equal_intensity_incoherent_linear(self):
        rep, ref = checked_report([2.0, 2.0, 2.0], dl.validate(np.eye(3)))
        assert rep.lin_lhs == 0.0
        assert ref.lin == 0

    def test_rhs_matches_naive(self):
        for seed in range(200):
            intensities, coh = random_instance(seed)
            s = naive_weight_fraction(intensities)
            vc = naive_visibility(intensities, coh)
            _, ref = checked_report(intensities, coh)
            assert float(ref.pyth) == pytest.approx(1.0 - s * s + vc * vc, abs=1e-12)
            assert float(ref.lin) == pytest.approx(1.0 - (s - vc), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_inequalities_hold(self, seed):
        intensities, coh = random_instance(seed)
        rep, _ = checked_report(intensities, coh)
        assert rep.pyth_lhs <= 1.0 + 1e-12 and rep.pyth_holds
        assert rep.lin_lhs <= 1.0 + 1e-12 and rep.lin_holds


class TestExactReference:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dark=st.booleans(),
        rank1=st.booleans(),
        blend=st.sampled_from([0.0, 1e-12, 1e-6, 0.5]),
        skew=st.sampled_from([0.0, 3e-11]),
    )
    def test_every_measure_within_its_bound(self, seed, dark, rank1, blend, skew):
        # dark slits, fully coherent (saturating) and nearly saturating
        # instances, and a coherence matrix that is Hermitian only within
        # the validation tolerance, which validate stores as its exact
        # Hermitian part, so V_C and C still read the same moduli
        rng = np.random.default_rng(seed)
        intensities, coh = random_instance(seed)
        n = coh.n
        if rank1:
            coh = dl.random_coherence(n, 1, seed=seed)
        m = (1.0 - blend) * coh.entries + blend * np.eye(n)
        m[0, 1] += skew * (1.0 + 1.0j)
        np.fill_diagonal(m, 1.0)
        if dark:
            intensities[int(rng.integers(0, n))] = 0.0
        checked_report(intensities * 10.0 ** rng.uniform(-100, 100), dl.validate(m))

    def test_c_matches_exact_v_c(self):
        # the quantum bridge of Bera et al. (PRA 92, 012118): C = V_C.  C
        # comes from the density matrix, so this is a second route to V_C;
        # full-rank matrices keep every modulus below 1, where the two agree
        for seed in range(100):
            intensities, coh = random_instance(seed)
            coh = dl.random_coherence(coh.n, coh.n, seed=seed)
            ref = exact(intensities, coh)
            c = dl.quantum_coherence(dl.density_from_beams(intensities, coh))
            assert abs(Decimal(c) - ref.v_c) <= bounds(coh.n, ref).c


class TestDensityMatrix:
    def test_maximally_coherent(self):
        rho = dl.density_from_beams([3.0, 3.0, 3.0], coherence_with(1.0, n=3)).rho
        assert np.allclose(rho, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_incoherent_mixture_diagonal(self):
        dm = dl.density_from_beams([1.0, 3.0], dl.validate(np.eye(2)))
        assert np.allclose(dm.rho, np.diag([0.25, 0.75]), atol=1e-15)

    def test_trace_one_hermitian_psd(self):
        for seed in range(300):
            intensities, coh = random_instance(seed)
            dm = dl.density_from_beams(intensities, coh)
            assert abs(np.trace(dm.rho).real - 1.0) < 1e-12
            assert np.max(np.abs(dm.rho - dm.rho.conj().T)) < 1e-14
            assert np.linalg.eigvalsh(dm.rho)[0] >= -1e-10

    def test_zero_total(self):
        with pytest.raises(ZeroTotalIntensity):
            dl.density_from_beams([0.0, 0.0], coherence_with(0.5))


class TestQuantumCoherence:
    def test_diagonal_is_zero(self):
        dm = dl.density_from_beams([1.0, 2.0], dl.validate(np.eye(2)))
        assert dl.quantum_coherence(dm) == 0.0

    def test_uniform_is_one(self):
        dm = dl.density_from_beams([1.0, 1.0, 1.0, 1.0], coherence_with(1.0, n=4))
        assert dl.quantum_coherence(dm) == pytest.approx(1.0, abs=1e-14)

    def test_equals_visibility(self):
        for seed in range(500):
            intensities, coh = random_instance(seed)
            c = dl.quantum_coherence(dl.density_from_beams(intensities, coh))
            vc = dl.visibility_analytic(intensities, coh)
            assert abs(c - vc) < 1e-14


@pytest.mark.parametrize(
    "build, intensities, fragment",
    [
        (dl.duality_report, [np.nan, 1.0], "finite"),
        (dl.duality_report, [np.inf, 1.0], "finite"),
        (dl.duality_report, [1e308] * 3, "finite"),
        (dl.density_from_beams, [[1.0, 2.0], [1.0, 1.0]], "1-D"),
    ],
    ids=["report-nan", "report-inf", "report-overflowing-sum", "density-two-axes"],
)
def test_invalid_intensities_refused(build, intensities, fragment):
    # once: nan measures reported as a broken theorem, C = 0 next to
    # V_C = 0.62, a misleading size mismatch.  An overflowing sum is refused
    # without a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=fragment):
            build(intensities, dl.validate(np.eye(len(intensities))))


class TestReport:
    def test_json_field_names(self):
        rep = dl.duality_report([1.0, 0.5], coherence_with(0.6))
        obj = json.loads(rep.to_json())
        assert list(obj.keys()) == [
            "n", "v_c", "d", "d_prime", "gamma_n", "c",
            "pyth_lhs", "lin_lhs", "pyth_holds", "lin_holds",
        ]
        assert obj["n"] == 2
        assert obj["pyth_holds"] is True and obj["lin_holds"] is True

    def test_all_measures_in_unit_interval(self):
        for seed in range(300):
            intensities, coh = random_instance(seed)
            rep = dl.duality_report(intensities, coh)
            for name in ("v_c", "d", "d_prime", "gamma_n", "c"):
                value = asdict(rep)[name]
                assert -1e-15 <= value <= 1.0 + 1e-12, (name, value)
            assert rep.d_prime <= rep.d + 1e-15

    def test_zero_intensity_slits_are_legal(self):
        rep = dl.duality_report([1.0, 0.0, 2.0], coherence_with(0.5, n=3))
        assert np.isfinite(rep.v_c)
        assert rep.pyth_holds and rep.lin_holds


class TestInvariances:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
    def test_scale_invariance(self, seed, scale):
        intensities, coh = random_instance(seed)
        scaled = np.asarray(intensities) * scale
        assert abs(dl.visibility_analytic(scaled, coh) - dl.visibility_analytic(intensities, coh)) < 1e-12
        assert abs(dl.distinguishability(scaled) - dl.distinguishability(intensities)) < 1e-12
        assert abs(dl.distinguishability_prime(scaled) - dl.distinguishability_prime(intensities)) < 1e-12
        c0 = dl.quantum_coherence(dl.density_from_beams(intensities, coh))
        c1 = dl.quantum_coherence(dl.density_from_beams(scaled, coh))
        assert abs(c0 - c1) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, seed):
        intensities, coh = random_instance(seed)
        n = coh.n
        perm = np.random.default_rng(seed).permutation(n)
        coh_p = dl.validate(coh.entries[np.ix_(perm, perm)])
        inten_p = np.asarray(intensities)[perm]
        assert abs(dl.visibility_analytic(inten_p, coh_p) - dl.visibility_analytic(intensities, coh)) < 1e-12
        assert abs(dl.distinguishability(inten_p) - dl.distinguishability(intensities)) < 1e-12
        # the 50-digit reference does not depend on the order, so both
        # orders lie within their derived bounds of the same value
        rep_a, ref = checked_report(intensities, coh)
        rep_b, _ = checked_report(inten_p, coh_p)
        limit = bounds(n, ref).pyth
        assert abs(rep_a.pyth_lhs - rep_b.pyth_lhs) <= 2 * limit < 1e-12

    def test_visibility_monotone_in_coherence(self):
        # blending toward full coherence scales every modulus up together
        rng = np.random.default_rng(12)
        intensities = rng.uniform(0.1, 2.0, 4)
        base = dl.random_coherence(4, 4, seed=3)
        previous = -1.0
        for t in np.linspace(0.0, 1.0, 11):
            blend = dl.validate((1.0 - t) * np.eye(4) + t * base.entries)
            vc = dl.visibility_analytic(intensities, blend)
            assert vc >= previous - 1e-15
            previous = vc

    def test_visibility_monotone_single_pair(self):
        for g in np.linspace(0.0, 0.99, 12):
            low = dl.visibility_analytic([1.0, 0.4], coherence_with(g))
            high = dl.visibility_analytic([1.0, 0.4], coherence_with(g + 0.01))
            assert high > low

    def test_saturation_requires_bright_pairs_coherent(self):
        # dark slit: saturation holds when the bright pair is fully coherent
        m = np.eye(3, dtype=complex)
        m[0, 1] = m[1, 0] = 1.0
        rep, ref = checked_report([1.0, 2.0, 0.0], dl.validate(m))
        assert rep.pyth_lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.lin_lhs == pytest.approx(1.0, abs=1e-12)
        assert abs(ref.pyth - 1) < 1e-45 and abs(ref.lin - 1) < 1e-45


def stack_instances(n, count=8):
    """count raw matrices of size n with their intensities: random Gram
    matrices of ranks 1, 2, ..., the last a polarized from_modes instance,
    each plus non-Hermitian dust inside the tolerances; one dark slit."""
    rng = np.random.default_rng(1300 + n)
    raws, intensities = [], []
    for k in range(count):
        if k == count - 1:
            modes = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            jones = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            jones /= np.linalg.norm(jones, axis=1)[:, None]
            g = dl.from_modes(dl.ModeDecomposition(modes), dl.PolarizationSet(jones)).entries
        else:
            g = dl.random_coherence(n, 1 + k % n, seed=int(rng.integers(0, 2**63))).entries
        raws.append(g + 1e-12 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
        inten = rng.dirichlet(np.ones(n)) * rng.uniform(0.1, 10.0)
        if k == 3:
            inten[k % n] = 0.0
        intensities.append(inten)
    return np.array(raws), np.array(intensities)


class TestStackBits:
    # a stack evaluates each member to the bits of that member alone, so the
    # sweep's stacks and the one-instance calls are one code path

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_hermitian_part_of_a_stack_is_one_by_one(self, n):
        raws, _ = stack_instances(n)
        g = _hermitian_part(raws)
        for raw, member in zip(raws, g):
            assert member.tobytes() == _hermitian_part(raw).tobytes()
            assert member.tobytes() == dl.validate(raw).entries.tobytes()

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_reports_of_a_stack_are_one_by_one(self, n):
        raws, intensities = stack_instances(n)
        g = _hermitian_part(raws)
        stacked = [repr(r) for r in _reports(intensities, g)]
        assert stacked == [repr(_reports(i, m)[0]) for i, m in zip(intensities, g)]
        assert stacked == [repr(dl.duality_report(i, dl.validate(raw))) for i, raw in zip(intensities, raws)]
        # more than one leading axis reads in C order
        nested = _reports(intensities.reshape(2, 4, n), g.reshape(2, 4, n, n))
        assert [repr(r) for r in nested] == stacked

    def test_one_indefinite_member_refuses_the_stack(self):
        raws, _ = stack_instances(5)
        raws[4] = np.full((5, 5), -0.5) + 1.5 * np.eye(5)  # eigenvalues 1.5 and -1
        with pytest.raises(NotPositiveSemidefinite, match="smallest eigenvalue -1.000e"):
            _hermitian_part(raws)
