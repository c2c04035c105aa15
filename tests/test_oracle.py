import warnings

import numpy as np
import pytest

import duality_lab as dl
from duality_lab.engine import MAX_N_TIMES_SUM
from duality_lab.oracle import convergence_report, ensemble_spec, mc_pattern, realize_fields

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

    def test_incoherent_fields_uncorrelated(self):
        # J = diag(I): off-diagonal sample moments vanish, diagonals match I
        slits = dl.SlitArray(intensities=[1.0, 0.5, 2.0], spacing=SPACING)
        coh = dl.validate(np.eye(3))
        spec = ensemble_spec(slits, coh, 1, seed=21)
        N = 30_000
        fields = np.array([realize_fields(spec, k) for k in range(N)])
        cov = np.einsum("ki,kj->ij", fields, fields.conj()) / N
        j = mutual_intensity(slits, coh)
        assert np.max(np.abs(cov - j)) <= 5.0 / np.sqrt(N) * np.max(np.abs(j))

    def test_rank_one_realizations_collinear(self):
        slits = dl.SlitArray(intensities=[1.0, 0.7, 0.4], spacing=SPACING)
        coh = dl.validate(np.ones((3, 3)))
        spec = ensemble_spec(slits, coh, 1, seed=2)
        fields = np.array([realize_fields(spec, k) for k in range(200)])
        sv = np.linalg.svd(fields, compute_uv=False)
        assert sv[1] / sv[0] < 1e-12

    def test_sample_covariance_matches_mutual_intensity(self):
        _, coh, _ = standard_setup()
        slits = dl.SlitArray(
            intensities=[1.0, 0.7, 0.4], spacing=SPACING, phases=[0.0, 0.9, -2.1]
        )
        spec = ensemble_spec(slits, coh, 1, seed=13)
        N = 100_000
        fields = np.array([realize_fields(spec, k) for k in range(N)])
        cov = np.einsum("ki,kj->ij", fields, fields.conj()) / N
        j = mutual_intensity(slits, coh)
        assert np.max(np.abs(cov - j)) <= 5.0 / np.sqrt(N) * np.max(np.abs(j))

    def test_spec_validation(self):
        slits, coh, _ = standard_setup()
        with pytest.raises(ValueError):
            ensemble_spec(slits, coh, 0, seed=1)
        other = dl.SlitArray(intensities=[1.0, 1.0], spacing=SPACING)
        with pytest.raises(ValueError, match="does not match"):
            ensemble_spec(other, coh, 10, seed=1)

    def test_eigenvalues_clipped_nonnegative(self):
        slits, coh, _ = standard_setup()
        spec = ensemble_spec(slits, coh, 10, seed=0)
        assert np.all(spec.eigenvalues >= 0.0)


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

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("phase_model", ["small_angle", "exact"])
    def test_finite_at_the_intensity_bound(self, n, phase_model):
        # the ensemble sum is N times the mean: once it overflowed to inf
        # and nan with a RuntimeWarning inside the bound the engine accepts
        slits = dl.SlitArray(intensities=np.full(n, MAX_N_TIMES_SUM / n / n), spacing=SPACING)
        geom = dl.ScreenGeometry.over_fringes(
            slits, WAVELENGTH, DISTANCE, samples=64, phase_model=phase_model
        )
        coh = dl.validate(np.ones((n, n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc = mc_pattern(slits, coh, geom, 100, seed=0)
            analytic = dl.pattern(slits, coh, geom)
        assert np.isfinite(mc.total).all()
        peak = int(np.argmax(analytic.total))
        assert abs(mc.total[peak] / analytic.total[peak] - 1.0) <= 5.0 / np.sqrt(100)

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

    def test_convergence_report_shape(self):
        slits, coh, geom = standard_setup(samples=1024)
        mc, report = convergence_report(slits, coh, geom, 5000, seed=11)
        assert mc.total.tobytes() == mc_pattern(slits, coh, geom, 5000, seed=11).total.tobytes()
        assert set(report.keys()) == {"N", "max_rel_dev", "at_x"}
        assert report["N"] == 5000
        assert 0.0 <= report["max_rel_dev"] < 0.2
        assert geom.x_min <= report["at_x"] <= geom.x_max
