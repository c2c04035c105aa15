import cmath
import math
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import duality_lab as dl
from duality_lab import engine, oracle
from duality_lab.coherence import _product
from duality_lab.engine import MAX_N_TIMES_SUM
from duality_lab.oracle import (
    MAX_REALIZATIONS,
    convergence_report,
    ensemble_spec,
    mc_pattern,
    realize_fields,
)
from duality_lab.scenario import load_scenario
from optics import DISTANCE, SPACING, WAVELENGTH, aligned_coherence
from test_engine import double_sum_tolerance


def standard_setup(samples=4096):
    slits = dl.SlitArray(intensities=[1.0, 0.7, 0.4], spacing=SPACING)
    coh = aligned_coherence(3, 31)
    geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=samples)
    return slits, coh, geom


def mutual_intensity(slits, coh):
    # sqrt(I_i I_j) g_ij exp(i(alpha_i - alpha_j)), the field second moment
    dphi = np.subtract.outer(slits.phases, slits.phases)
    return np.sqrt(np.outer(slits.intensities, slits.intensities)) * coh.entries * np.exp(1j * dphi)


class TestRealizeFields:
    def test_deterministic_per_realization(self):
        slits, coh, _ = standard_setup()
        spec = ensemble_spec(slits, coh, 10, seed=7)
        assert np.array_equal(realize_fields(spec, 3), realize_fields(spec, 3))
        assert not np.array_equal(realize_fields(spec, 3), realize_fields(spec, 4))

    def test_rows_are_one_stream(self):
        # realization k is row k of one seeded stream, however it is asked for
        slits, coh, _ = standard_setup()
        spec = ensemble_spec(slits, coh, 10, seed=7)
        rows = realize_fields(spec, np.arange(1000))
        assert rows.shape == (1000, 3)
        for k in (0, 1, 511, 512, 999):
            assert rows[k].tobytes() == realize_fields(spec, k).tobytes()
        assert rows[:700].tobytes() == realize_fields(spec, np.arange(700)).tobytes()
        assert rows[[4, 2]].tobytes() == realize_fields(spec, [4, 2]).tobytes()
        # bad indices are refused by name before anything is drawn; none of
        # the accepted ones is near the cap, which would draw 2^24 rows
        bad_indices = [
            [-1, 3], [], 2.5, True, [True, False], np.array([1.0]), "1",
            MAX_REALIZATIONS, [0, MAX_REALIZATIONS], 2**70,
        ]
        for bad in bad_indices:
            with pytest.raises(IndexError, match="realization index k"):
                realize_fields(spec, bad)

    def test_reads_the_stream_one_chunk_at_a_time(self, monkeypatch):
        # with a chunk of 4 rows (rank 3), realize_fields gives the bytes of
        # one draw of the whole stream and mc_pattern those of the chunk loop
        # it was written as, while no draw holds more than one chunk; a call
        # once drew rows 0..max(k) in one array
        monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", 64)
        slits, coh, geom = standard_setup(samples=256)
        spec = ensemble_spec(slits, coh, 100, seed=7)
        f, r = spec.factor, spec.factor.shape[1]
        chunk = 4

        def one_shot(k):
            idx = np.asarray(k)
            rows = np.random.default_rng(7).standard_normal((int(idx.max()) + 1, 2, r))
            c = (np.sqrt(0.5) * rows)[idx]
            return _product(c[..., 0, :], c[..., 1, :], f.real.T, f.imag.T)

        def chunk_loop(n_real):
            rng = np.random.default_rng(7)
            w = np.zeros((2, r, r))
            for start in range(0, n_real, chunk):
                count = min(chunk, n_real - start)
                w += oracle._outer_sum(np.sqrt(0.5) * rng.standard_normal((count, 2, r)))
            w /= n_real
            h = _product(f.real, f.imag, w[0], w[1])
            g = _product(h.real, h.imag, f.real.T, -f.imag.T)
            return engine.screen_pattern(slits, geom, geom.grid(), g.real, g.imag)

        indices = [
            [37, 2, 2, 19, 0, 37, 5], np.array([[38, 11, 3], [3, 38, 0]], dtype=np.uint16),
            np.int8(127), np.arange(41)[::-1], 10_000,
        ]
        for k in indices:
            assert realize_fields(spec, k).tobytes() == one_shot(k).tobytes(), k
        expected = chunk_loop(150).total.tobytes()
        assert mc_pattern(slits, coh, geom, 150, seed=7).total.tobytes() == expected

        sizes = []
        default_rng = np.random.default_rng

        class Spy:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, size):
                sizes.append(math.prod(size))
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", Spy)
        realize_fields(spec, 10_000)
        assert sum(sizes) == 10_001 * 2 * r
        assert max(sizes) == chunk * 2 * r

    def test_incoherent_fields_uncorrelated(self):
        # J = diag(I): off-diagonal sample moments vanish, diagonals match I
        slits = dl.SlitArray(intensities=[1.0, 0.5, 2.0], spacing=SPACING)
        coh = dl.validate(np.eye(3))
        spec = ensemble_spec(slits, coh, 1, seed=21)
        N = 30_000
        fields = realize_fields(spec, np.arange(N))
        cov = np.einsum("ki,kj->ij", fields, fields.conj()) / N
        j = mutual_intensity(slits, coh)
        assert np.max(np.abs(cov - j)) <= 5.0 / np.sqrt(N) * np.max(np.abs(j))

    def test_rank_one_realizations_collinear(self):
        slits = dl.SlitArray(intensities=[1.0, 0.7, 0.4], spacing=SPACING)
        coh = dl.validate(np.ones((3, 3)))
        spec = ensemble_spec(slits, coh, 1, seed=2)
        fields = realize_fields(spec, np.arange(200))
        sv = np.linalg.svd(fields, compute_uv=False)
        assert sv[1] / sv[0] < 1e-12

    def test_sample_covariance_matches_mutual_intensity(self):
        _, coh, _ = standard_setup()
        slits = dl.SlitArray(
            intensities=[1.0, 0.7, 0.4], spacing=SPACING, phases=[0.0, 0.9, -2.1]
        )
        spec = ensemble_spec(slits, coh, 1, seed=13)
        N = 100_000
        fields = realize_fields(spec, np.arange(N))
        cov = np.einsum("ki,kj->ij", fields, fields.conj()) / N
        j = mutual_intensity(slits, coh)
        assert np.max(np.abs(cov - j)) <= 5.0 / np.sqrt(N) * np.max(np.abs(j))

    def test_spec_validation(self):
        slits, coh, _ = standard_setup()
        with pytest.raises(ValueError):
            ensemble_spec(slits, coh, 0, seed=1)
        # the bound is checked on the recipe alone; nothing is drawn
        assert ensemble_spec(slits, coh, MAX_REALIZATIONS, seed=1).realizations == MAX_REALIZATIONS
        with pytest.raises(ValueError, match=str(MAX_REALIZATIONS)):
            ensemble_spec(slits, coh, MAX_REALIZATIONS + 1, seed=1)
        other = dl.SlitArray(intensities=[1.0, 1.0], spacing=SPACING)
        with pytest.raises(ValueError, match="does not match"):
            ensemble_spec(other, coh, 10, seed=1)

    @pytest.mark.parametrize("realizations", [1.5, True, 2000.0], ids=["float", "bool", "integral_float"])
    def test_realizations_must_be_an_integer(self, realizations):
        # a float or bool count once built a spec that held it as given
        slits, coh, _ = standard_setup()
        with pytest.raises(ValueError, match=f"realizations must be an integer, got {realizations!r}"):
            ensemble_spec(slits, coh, realizations, seed=1)

    @pytest.mark.parametrize("realizations", [2000.5, "200", 200.0, True])
    def test_mc_pattern_refuses_a_count_that_is_not_an_integer(self, realizations):
        # 2000.5 once ended in a bare TypeError from the coefficient stream,
        # "200" in one from the comparison with MIN_REALIZATIONS, and True
        # was refused as a count below the minimum
        slits, coh, geom = standard_setup(samples=64)
        with pytest.raises(ValueError, match=re.escape(f"realizations must be an integer, got {realizations!r}")):
            mc_pattern(slits, coh, geom, realizations, 1)
        # the count is checked before anything else is read
        with pytest.raises(ValueError, match="realizations must be an integer"):
            mc_pattern(None, None, None, realizations, 7)

    def test_numpy_integer_realizations(self):
        slits, coh, _ = standard_setup()
        assert ensemble_spec(slits, coh, np.int64(10), seed=1).realizations == 10

    @pytest.mark.parametrize("seed", [1.5, True, 7.0], ids=["float", "bool", "integral_float"])
    def test_seed_must_be_an_integer(self, seed):
        # a float seed was stored as given, and mc_pattern then ended in a
        # bare TypeError from SeedSequence
        slits, coh, geom = standard_setup(samples=64)
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            ensemble_spec(slits, coh, 200, seed)
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            mc_pattern(slits, coh, geom, 200, seed)

    def test_numpy_integer_and_generator_seeds(self):
        slits, coh, geom = standard_setup(samples=64)
        expected = mc_pattern(slits, coh, geom, 200, 7).total.tobytes()
        assert ensemble_spec(slits, coh, 200, np.uint64(7)).seed == 7
        assert mc_pattern(slits, coh, geom, 200, np.int64(7)).total.tobytes() == expected
        # a Generator seed was once accepted and advanced with every draw,
        # so one spec's realization k changed from call to call
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="seed must be an integer, got Generator"):
            ensemble_spec(slits, coh, 200, rng)
        with pytest.raises(ValueError, match="seed must be an integer, got Generator"):
            mc_pattern(slits, coh, geom, 200, rng)
        with pytest.raises(ValueError, match="seed must be an integer, got Generator"):
            oracle.EnsembleSpec(realizations=200, seed=rng, factor=np.ones((3, 1)))

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)])
    def test_negative_seed_refused_when_built(self, seed):
        # once built, with numpy's unnamed "expected non-negative integer"
        # at the first draw
        slits, coh, geom = standard_setup(samples=64)
        with pytest.raises(ValueError, match=re.escape(f"seed must be nonnegative, got {seed!r}")):
            ensemble_spec(slits, coh, 200, seed)
        with pytest.raises(ValueError, match=re.escape(f"seed must be nonnegative, got {seed!r}")):
            mc_pattern(slits, coh, geom, 200, seed)

    @pytest.mark.parametrize(
        "factor",
        [np.ones(3), np.ones((3, 0)), [[np.nan]], [[1.0, np.inf]], np.ones((2, 2, 1)), [["a"]], 1.0],
        ids=["1-D", "no_column", "nan", "inf", "3-D", "strings", "scalar"],
    )
    def test_malformed_factor_refused(self, factor):
        # once an IndexError (1-D), a ZeroDivisionError (no column) or NaN
        # fields at the first draw
        with pytest.raises(ValueError, match="factor must be a finite 2-D numeric array"):
            oracle.EnsembleSpec(realizations=10, seed=0, factor=factor)

    def test_real_factor_accepted(self):
        spec = oracle.EnsembleSpec(realizations=10, seed=0, factor=[[1.0, 0.0], [0.5, 2.0]])
        assert realize_fields(spec, 3).shape == (2,)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_factor_reproduces_mutual_intensity(self, rank):
        # entry (i, j), j <= i, of A - F F^H in exact rational arithmetic is
        # within engine.pivoted_cholesky's bound gamma_{2r+2} sum_k |F_ik|
        # |F_jk| plus the dropped PSD residual, whose entries are at most
        # tol = n eps max(diag A).  The pivot order is the 3-cycle [1, 2, 0],
        # so a factor whose rows were left in pivot order would not match A.
        slits = dl.SlitArray(
            intensities=[0.4, 1.0, 0.7], spacing=SPACING, phases=[0.0, 0.9, -2.1]
        )
        coh = dl.random_coherence(3, rank, 4)
        factor = ensemble_spec(slits, coh, 10, seed=0).factor
        assert factor.shape == (3, rank)
        a_re, a_im = engine.mutual_intensity(slits, coh)
        n, r = factor.shape
        half_eps = sys.float_info.epsilon / 2.0
        gamma = (2 * r + 2) * half_eps / (1.0 - (2 * r + 2) * half_eps)
        tol = n * sys.float_info.epsilon * float(np.max(a_re.diagonal()))
        rows = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in factor.tolist()]
        mod = np.abs(factor).tolist()
        for i in range(n):
            for j in range(i + 1):
                e_re = Fraction(float(a_re[i, j]))
                e_im = Fraction(0.0 if i == j else float(a_im[i, j]))
                for (a, b), (c, d) in zip(rows[i], rows[j]):
                    e_re -= a * c + b * d
                    e_im -= b * c - a * d
                weight = math.fsum(s * t for s, t in zip(mod[i], mod[j]))
                bound = gamma * weight + (1.0 + gamma) * tol
                assert abs(e_re) <= bound and abs(e_im) <= bound, (i, j)

    def test_rank_one_factor_has_one_column(self):
        slits = dl.SlitArray(
            intensities=[1.0, 0.7, 0.4], spacing=SPACING, phases=[0.0, 0.9, -2.1]
        )
        spec = ensemble_spec(slits, dl.validate(np.ones((3, 3))), 10, seed=0)
        assert spec.factor.shape == (3, 1)
        assert not spec.factor.flags.writeable


def tree_sum(c):
    # _outer_sum as first written: each level of the pairwise tree adds the
    # two halves into a new array
    count, r = len(c), c.shape[-1]
    size = 1 << (count - 1).bit_length()
    x = np.zeros((2, r, size))
    x[..., :count] = c.transpose(1, 2, 0)
    (a_re, a_im), (b_re, b_im) = x[:, :, None], x[:, None]
    p = np.empty((2, r, r, size))
    p[0] = a_re * b_re + a_im * b_im
    p[1] = a_im * b_re - a_re * b_im
    while size > 1:
        size //= 2
        p = p[..., :size] + p[..., size:]
    return p[..., 0]


@pytest.mark.parametrize("count", [1, 2, 3, 2000, 4096, 4097])
def test_outer_sum_in_place_is_the_tree(count):
    # the in-place halving adds the same pairs in the same tree
    c = np.random.default_rng(count).standard_normal((count, 2, 3))
    assert oracle._outer_sum(c).tobytes() == tree_sum(c).tobytes()


class TestMcPattern:
    def test_identity_coherence_converges_to_incoherent(self):
        slits = dl.SlitArray(intensities=[1.0, 0.7, 0.4], spacing=SPACING)
        geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=1024)
        mc = mc_pattern(slits, dl.validate(np.eye(3)), geom, 50_000, seed=1)
        rel = np.max(np.abs(mc.total - mc.incoherent)) / mc.incoherent.max()
        assert rel < 5.0 / np.sqrt(50_000) * 3  # all-grid max, looser than pointwise

    def test_two_slit_full_coherence_peak(self):
        slits = dl.SlitArray(intensities=[1.0, 1.0], spacing=SPACING)
        geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=4096)
        coh = dl.validate(np.ones((2, 2)))
        mc = mc_pattern(slits, coh, geom, 100_000, seed=2)
        analytic = dl.pattern(slits, coh, geom)
        peak = int(np.argmax(analytic.total))
        dev = abs(mc.total[peak] - analytic.total[peak]) / analytic.total[peak]
        assert dev < 0.02

    def test_unbiased_at_primary_maximum(self):
        slits, coh, geom = standard_setup()
        analytic = dl.pattern(slits, coh, geom)
        peak = int(np.argmax(analytic.total))
        devs = []
        for n_real in (1000, 10_000, 100_000):
            mc = mc_pattern(slits, coh, geom, n_real, seed=4)
            dev = abs(mc.total[peak] - analytic.total[peak]) / analytic.total[peak]
            assert dev <= 5.0 / np.sqrt(n_real)
            devs.append(dev)
        assert devs[2] < devs[0]  # the 1/sqrt(N) trend over two decades

    def test_deterministic(self):
        slits, coh, geom = standard_setup(samples=512)
        a = mc_pattern(slits, coh, geom, 2000, seed=9)
        b = mc_pattern(slits, coh, geom, 2000, seed=9)
        assert a.total.tobytes() == b.total.tobytes()
        c = mc_pattern(slits, coh, geom, 2000, seed=10)
        assert a.total.tobytes() != c.total.tobytes()

    @pytest.mark.parametrize("phase_model", ["small_angle", "exact"])
    def test_is_the_screen_step_of_the_covariance(self, phase_model):
        # the ensemble step returns G, and the pattern is its screen step
        slits, coh, _ = standard_setup()
        geom = dl.ScreenGeometry.over_fringes(
            slits, WAVELENGTH, DISTANCE, samples=256, phase_model=phase_model
        )
        spec = ensemble_spec(slits, coh, 700, 5)
        g = oracle._covariance(spec)
        assert g.shape == (3, 3)
        expected = engine.screen_pattern(slits, geom, geom.grid(), g.real, g.imag)
        assert mc_pattern(slits, coh, geom, 700, 5).total.tobytes() == expected.total.tobytes()
        assert oracle._covariance(spec).tobytes() == g.tobytes()

    def test_requires_minimum_realizations(self):
        slits, coh, geom = standard_setup(samples=512)
        with pytest.raises(ValueError, match="at least 100"):
            mc_pattern(slits, coh, geom, 50, seed=0)

    def test_carries_incoherent_reference(self):
        slits, coh, geom = standard_setup(samples=512)
        mc = mc_pattern(slits, coh, geom, 500, seed=3)
        assert np.allclose(mc.incoherent, slits.intensities.sum())

    @pytest.mark.parametrize(
        "n, seed", [(2, 0), (3, 0), (8, 0), (8, 23557)], ids=["2", "3", "8", "8-23557"]
    )
    @pytest.mark.parametrize("phase_model", ["small_angle", "exact"])
    def test_finite_at_the_intensity_bound(self, n, seed, phase_model):
        # the ensemble sum is N times the mean: once it overflowed to inf
        # and nan with a RuntimeWarning inside the bound the engine accepts.
        # The kernel's margin is sqrt(2) n trace, and the covariance of an
        # ensemble can have a larger trace than sum_i I_i: seed 23557 gives
        # the largest among seeds 0 to 99999, 1.44 sum_i I_i.  A rank-one A
        # draws one coefficient per realization, so that holds for every n.
        slits = dl.SlitArray(intensities=np.full(n, MAX_N_TIMES_SUM / n / n), spacing=SPACING)
        geom = dl.ScreenGeometry.over_fringes(
            slits, WAVELENGTH, DISTANCE, samples=64, phase_model=phase_model
        )
        coh = dl.validate(np.ones((n, n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc = mc_pattern(slits, coh, geom, 100, seed=seed)
            analytic = dl.pattern(slits, coh, geom)
        assert np.isfinite(mc.total).all()
        peak = int(np.argmax(analytic.total))
        ratio = mc.total[peak] / analytic.total[peak]
        # rank one: the ensemble pattern is the analytic one times the mean
        # |c|^2 of the single mode, which |E_i|^2 / I_i reads off
        fields = realize_fields(ensemble_spec(slits, coh, 100, seed), np.arange(100))
        power = np.mean((np.abs(fields) / np.sqrt(slits.intensities)) ** 2)
        assert ratio == pytest.approx(power, rel=1e-9)
        if seed == 0:  # a seed picked as the extreme of 10^5 is outside any 5-sigma bound
            assert abs(ratio - 1.0) <= 5.0 / np.sqrt(100)

    @pytest.mark.parametrize("phase_model", ["small_angle", "exact"])
    def test_gram_route_is_the_per_realization_mean(self, phase_model):
        # mean_k |sum_i E_i(k) exp(i omega t_i0(x))|^2 over the fields that
        # realize_fields returns, propagated with the scalar delay() rather
        # than the pattern kernel; N crosses the 16384-realization chunk of
        # a rank-2 A
        N = 20_000
        slits = dl.SlitArray(
            intensities=[1.0, 0.7, 0.4], spacing=SPACING, phases=[0.0, 0.9, -2.1]
        )
        coh = dl.random_coherence(3, 2, 5)
        geom = dl.ScreenGeometry.over_fringes(
            slits, WAVELENGTH, DISTANCE, samples=64, phase_model=phase_model
        )
        mc = mc_pattern(slits, coh, geom, N, seed=8)
        fields = realize_fields(ensemble_spec(slits, coh, N, seed=8), np.arange(N))
        direct = []
        for x in mc.grid.tolist():
            u = [cmath.exp(1j * geom.omega * dl.delay(geom, slits, i, 0, x)) for i in range(3)]
            direct.append(np.mean(np.abs(fields @ np.array(u)) ** 2))
        # off-diagonal term ij of realization k has magnitude |E_i(k) E_j(k)|
        mags = np.abs(fields)
        weight = np.mean(mags.sum(axis=1) ** 2 - (mags**2).sum(axis=1))
        bound = double_sum_tolerance(slits, geom, weight)
        assert np.max(np.abs(mc.total - np.array(direct))) <= bound

    @pytest.mark.parametrize("seed", range(6))
    def test_screen_fields_are_the_engine_bits(self, seed):
        # both patterns are put on the screen by engine.screen_pattern
        rng = np.random.default_rng(seed)
        slits = dl.SlitArray(intensities=rng.uniform(0.1, 1.0, 8), spacing=SPACING)
        coh = dl.random_coherence(8, 7, seed=seed)
        geom = dl.ScreenGeometry.over_fringes(
            slits, WAVELENGTH, DISTANCE, samples=256, envelope="gaussian", sigma=0.03
        )
        mc = mc_pattern(slits, coh, geom, 100, seed=seed)
        analytic = dl.pattern(slits, coh, geom)
        assert mc.grid.tobytes() == analytic.grid.tobytes()
        assert mc.incoherent.tobytes() == analytic.incoherent.tobytes()
        assert (mc.n, mc.fringe_width) == (analytic.n, dl.fringe_width(geom, slits))

    def test_phases_enter_like_the_engine(self):
        # intrinsic slit phases shift the fringes identically in both paths
        slits = dl.SlitArray(
            intensities=[1.0, 1.0], spacing=SPACING, phases=[0.0, np.pi / 3]
        )
        geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=2048)
        coh = dl.validate(np.ones((2, 2)))
        mc = mc_pattern(slits, coh, geom, 200_000, seed=6)
        analytic = dl.pattern(slits, coh, geom)
        peak = int(np.argmax(analytic.total))
        assert abs(mc.total[peak] - analytic.total[peak]) / analytic.total[peak] < 0.02


class TestEndToEnd:
    def test_extract_vc_agrees_with_analytic(self):
        # large-N oracle run closing the loop through peak extraction
        slits, coh, geom = standard_setup()
        mc = mc_pattern(slits, coh, geom, 1_000_000, seed=17)
        vc_mc = dl.extract_vc(mc)
        vc_an = dl.visibility_analytic(slits.intensities, coh)
        assert abs(vc_mc - vc_an) / vc_an < 0.01

    def test_bundled_scenario_within_criterion_bound(self):
        # criterion 8's 5/sqrt(N) holds for seeds 0 to 299 of the bundled
        # scenario's N = 2000 ensemble (largest deviation 0.070 of 0.112)
        sc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "three_slit.json")
        analytic = dl.pattern(sc.slits, sc.coherence, sc.geometry)
        for seed in range(300):
            mc = mc_pattern(sc.slits, sc.coherence, sc.geometry, 2000, seed)
            report = convergence_report(mc, analytic, 2000)
            assert report["max_rel_dev"] <= 5.0 / np.sqrt(2000), seed

    def test_convergence_report_shape(self):
        slits, coh, geom = standard_setup(samples=1024)
        mc = mc_pattern(slits, coh, geom, 5000, seed=11)
        analytic = dl.pattern(slits, coh, geom)
        report = convergence_report(mc, analytic, 5000)
        assert convergence_report(analytic, analytic, 5000)["max_rel_dev"] == 0.0
        assert set(report.keys()) == {"N", "max_rel_dev", "at_x"}
        assert report["N"] == 5000
        assert 0.0 <= report["max_rel_dev"] < 0.2
        assert geom.x_min <= report["at_x"] <= geom.x_max
