import cmath
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import duality_lab as dl
from duality_lab import engine
from duality_lab.engine import MAX_N_TIMES_SUM
from duality_lab.oracle import (
    MAX_REALIZATIONS,
    convergence_report,
    ensemble_spec,
    mc_pattern,
    realize_fields,
)
from duality_lab.scenario import load_scenario
from test_engine import double_sum_tolerance

WAVELENGTH = 500e-9
DISTANCE = 1.0
SPACING = 50e-6


def aligned_coherence(n, seed):
    rng = np.random.default_rng(seed)
    return dl.from_modes(dl.ModeDecomposition(np.abs(rng.standard_normal((n, n)))))


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
        with pytest.raises(IndexError):
            realize_fields(spec, [-1, 3])

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

    @pytest.mark.parametrize("rank", [2, 3])
    def test_factor_reproduces_mutual_intensity(self, rank):
        # entry (i, j), j <= i, of A - F F^H in exact rational arithmetic is
        # within engine.pivoted_cholesky's bound gamma_{2r+2} sum_k |F_ik|
        # |F_jk| plus the dropped PSD residual, whose entries are at most
        # tol = n eps max(diag A).  The pivot order is the 3-cycle [1, 2, 0],
        # so rows put back in the wrong order would not match A.
        slits = dl.SlitArray(
            intensities=[0.4, 1.0, 0.7], spacing=SPACING, phases=[0.0, 0.9, -2.1]
        )
        coh = dl.random_coherence(3, rank, 4)
        factor = ensemble_spec(slits, coh, 10, seed=0).factor
        assert factor.shape == (3, rank)
        a_re, a_im = engine.mutual_intensity(slits.intensities, coh, slits.phases)
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
