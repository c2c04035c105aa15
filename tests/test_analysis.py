import re
from dataclasses import replace

import numpy as np
import pytest

import duality_lab as dl
from duality_lab.analysis import (
    EmptyWindow,
    UndersampledGrid,
    ZeroIncoherentIntensity,
    aligned_phases,
)
from optics import DISTANCE, SPACING, WAVELENGTH, W, aligned_coherence, coherence_with


def make_pattern(intensities, coh, samples=4097, **kw):
    slits = dl.SlitArray(intensities=intensities, spacing=SPACING)
    geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=samples, **kw)
    return dl.pattern(slits, coh, geom)


def uneven_grid_pattern():
    # a two-slit pattern of fringe width 1 whose primary maximum is at
    # x = 0.013, on a grid fine at its left end and coarse elsewhere
    x = np.concatenate([np.linspace(-2.0, -1.9, 200), np.linspace(-1.85, 2.0, 90)])
    return x, 2.0 + 2.0 * np.cos(2.0 * np.pi * (x - 0.013))


class TestFindPrimaryMax:
    def test_peak_at_origin_for_aligned_phases(self):
        pat = make_pattern([1.0, 0.7, 0.4], aligned_coherence(3, 5))
        peak = dl.find_primary_max(pat)
        step = pat.grid[1] - pat.grid[0]
        assert abs(peak.x_star) <= step
        assert abs(pat.grid[peak.grid_index] - peak.x_star) <= step

    def test_two_slit_peak_height(self):
        pat = make_pattern([1.0, 1.0], coherence_with(1.0))
        peak = dl.find_primary_max(pat)
        assert peak.i_max == pytest.approx(4.0, rel=1e-6)

    def test_three_slit_partial_coherence_height(self):
        # 3 + 6 * 1 * 0.5 = 6 at the aligned maximum; cross-check the grid
        pat = make_pattern([1.0, 1.0, 1.0], coherence_with(0.5, n=3))
        peak = dl.find_primary_max(pat)
        assert peak.i_max == pytest.approx(6.0, rel=1e-6)
        assert peak.i_max >= pat.total[np.abs(pat.grid) <= W / 2].max() - 1e-12

    def test_refined_height_tops_every_window_sample(self):
        # off-grid peak: even sample count puts x = 0 between samples
        pat = make_pattern([1.0, 0.3, 0.8, 1.2], aligned_coherence(4, 9), samples=4096)
        window = (-W / 2, W / 2)
        peak = dl.find_primary_max(pat, window)
        inside = (pat.grid >= window[0]) & (pat.grid <= window[1])
        assert peak.i_max >= pat.total[inside].max()

    def test_custom_window_finds_side_peak(self):
        pat = make_pattern([1.0, 1.0], coherence_with(1.0))
        peak = dl.find_primary_max(pat, window=(0.5 * W, 1.5 * W))
        assert peak.x_star == pytest.approx(W, abs=pat.grid[1] - pat.grid[0])

    def test_undersampled_grid_rejected(self):
        pat = make_pattern([1.0, 1.0], coherence_with(1.0), samples=256)  # 32 per fringe
        with pytest.raises(UndersampledGrid):
            dl.find_primary_max(pat)

    def test_uneven_grid_judged_at_its_widest_step(self):
        # 200 samples over [-2, -1.9], then 90 over [-1.85, 2]: 1990 samples
        # per fringe by the first step, which this grid once passed with,
        # but 20 at the widest step, the gap, and about 23 at the peak, where
        # the parabola then put x_star at 0.0101 for a true 0.013
        x, total = uneven_grid_pattern()
        pat = dl.InterferencePattern(grid=x, total=total, incoherent=np.full(x.size, 2.0), n=2, fringe_width=1.0)
        with pytest.raises(UndersampledGrid, match="20.0 samples per fringe at the widest grid step"):
            dl.find_primary_max(pat)

    def test_empty_window_rejected(self):
        pat = make_pattern([1.0, 1.0], coherence_with(1.0))
        with pytest.raises(EmptyWindow):
            dl.find_primary_max(pat, window=(10 * W, 11 * W))


class TestExtractVc:
    def test_incoherent_gives_zero(self):
        pat = make_pattern([1.0, 0.5, 0.7], dl.validate(np.eye(3)))
        assert dl.extract_vc(pat) == pytest.approx(0.0, abs=1e-12)

    def test_two_slit_recovers_modulus(self):
        for g in (0.2, 0.5, 0.9, 1.0):
            pat = make_pattern([1.0, 1.0], coherence_with(g))
            assert dl.extract_vc(pat) == pytest.approx(g, abs=1e-6)

    def test_matches_analytic_for_random_aligned_instances(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            intensities = rng.uniform(0.05, 2.0, n)
            coh = aligned_coherence(n, seed + 100)
            pat = make_pattern(intensities, coh, samples=4096)
            vc_op = dl.extract_vc(pat)
            vc_an = dl.visibility_analytic(intensities, coh)
            assert vc_op == pytest.approx(vc_an, abs=1e-6)

    def test_invariant_under_pattern_rescaling(self):
        pat = make_pattern([1.0, 0.6], coherence_with(0.7))
        scaled = replace(pat, total=pat.total * 1.7e3, incoherent=pat.incoherent * 1.7e3)
        assert dl.extract_vc(scaled) == pytest.approx(dl.extract_vc(pat), abs=1e-12)

    def test_gaussian_envelope_near_uniform_at_peak(self):
        # envelope locally flat at its summit when sigma >> w
        for sigma_factor in (20.0, 50.0):
            intensities = [1.0, 0.6, 1.4, 0.2]
            coh = aligned_coherence(4, 77)
            pat = make_pattern(
                intensities, coh, samples=4096, envelope="gaussian", sigma=sigma_factor * W
            )
            vc_op = dl.extract_vc(pat)
            vc_an = dl.visibility_analytic(intensities, coh)
            assert vc_op == pytest.approx(vc_an, abs=1e-4)

    def test_misaligned_phases_fall_below_analytic(self):
        # frustrated pair phases: no screen position lines up all three
        # cosines, so the operational estimate drops under the analytic one
        # (here the best sum is 1.5 of 3, giving exactly half the visibility)
        m = np.array([[1.0, 0.5, -0.5], [0.5, 1.0, 0.5], [-0.5, 0.5, 1.0]])
        slits = dl.SlitArray(intensities=[1.0, 1.0, 1.0], spacing=SPACING)
        coh = dl.validate(m)
        pat = make_pattern([1.0, 1.0, 1.0], coh)
        assert not aligned_phases(slits, coh)
        vc_an = dl.visibility_analytic([1.0, 1.0, 1.0], coh)
        assert dl.extract_vc(pat) == pytest.approx(vc_an / 2.0, abs=1e-6)

    def test_aligned_phases_flag(self):
        slits = dl.SlitArray(intensities=[1.0, 1.0], spacing=SPACING)
        assert aligned_phases(slits, coherence_with(0.5))
        twisted = dl.SlitArray(intensities=[1.0, 1.0], spacing=SPACING, phases=[0.0, 1.0])
        assert not aligned_phases(twisted, coherence_with(0.5))
        # intrinsic phases can cancel the coherence phase
        m = np.eye(2, dtype=complex)
        m[0, 1] = 0.5 * np.exp(0.7j)
        m[1, 0] = np.conj(m[0, 1])
        cancel = dl.SlitArray(intensities=[1.0, 1.0], spacing=SPACING, phases=[-0.7, 0.0])
        assert aligned_phases(cancel, dl.validate(m))

    def test_zero_incoherent_reference_refused(self):
        pat = make_pattern([1.0, 1.0], coherence_with(0.4))
        dark = replace(pat, incoherent=np.zeros_like(pat.incoherent))
        with pytest.raises(ZeroIncoherentIntensity, match="vanishes at the peak"):
            dl.extract_vc(dark)


class TestExtractMichelson:
    def test_full_coherence_equal_intensities(self):
        pat = make_pattern([1.0, 1.0], coherence_with(1.0))
        assert dl.extract_michelson(pat) == pytest.approx(1.0, abs=1e-9)

    def test_partial_coherence_equal_intensities(self):
        pat = make_pattern([1.0, 1.0], coherence_with(0.5))
        assert dl.extract_michelson(pat) == pytest.approx(0.5, abs=1e-6)

    def test_unequal_intensities(self):
        pat = make_pattern([4.0, 1.0], coherence_with(1.0))
        assert dl.extract_michelson(pat) == pytest.approx(0.8, abs=1e-6)

    def test_matches_two_beam_contrast(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = rng.uniform(0.0, 1.0)
            i1, i2 = rng.uniform(0.2, 3.0, 2)
            pat = make_pattern([i1, i2], coherence_with(g))
            expected = g * 2.0 * np.sqrt(i1 * i2) / (i1 + i2)
            assert dl.extract_michelson(pat) == pytest.approx(expected, abs=1e-6)

    def test_equals_vc_for_two_equal_slits(self):
        pat = make_pattern([1.0, 1.0], coherence_with(0.73))
        assert dl.extract_michelson(pat) == pytest.approx(dl.extract_vc(pat), abs=1e-6)

    def test_adjacent_maxima_on_one_sample_refused(self):
        # 64 samples per fringe do not keep the two maxima apart: the argmax
        # of the central window sits on its left edge below a larger sample
        # outside it, so the parabola through them puts x_star a fringe to
        # the left, and the next window's argmax is that outside sample, the
        # neighbour of the first, with no sample between them
        x = np.arange(-200, 201) / 64.0
        total = np.full(x.size, 0.5)
        total[167:170] = [3.0, 2.0, 2.0 - 129 / 127]
        pat = dl.InterferencePattern(grid=x, total=total, incoherent=np.ones(x.size), n=2, fringe_width=1.0)
        with pytest.raises(UndersampledGrid, match="no samples between adjacent primary maxima"):
            dl.extract_michelson(pat)


class TestFringeWidth:
    def test_value(self):
        slits = dl.SlitArray(intensities=[1.0, 1.0], spacing=50e-6)
        geom = dl.ScreenGeometry(500e-9, 1.0, -0.04, 0.04)
        assert dl.fringe_width(geom, slits) == pytest.approx(0.01, rel=1e-12)

    def test_doubling_spacing_halves_width(self):
        geom = dl.ScreenGeometry(500e-9, 1.0, -0.04, 0.04)
        narrow = dl.SlitArray(intensities=[1.0, 1.0], spacing=50e-6)
        wide = dl.SlitArray(intensities=[1.0, 1.0], spacing=100e-6)
        assert dl.fringe_width(geom, narrow) == pytest.approx(2 * dl.fringe_width(geom, wide))

    def test_peak_spacing_matches(self):
        pat = make_pattern([1.0, 1.0, 1.0], coherence_with(1.0, n=3))
        first = dl.find_primary_max(pat)
        second = dl.find_primary_max(pat, window=(first.x_star + 0.5 * W, first.x_star + 1.5 * W))
        step = pat.grid[1] - pat.grid[0]
        assert abs((second.x_star - first.x_star) - W) <= step


class TestCsvImport:
    def test_analysis_on_reimported_pattern(self, tmp_path):
        pat = make_pattern([1.0, 1.0], coherence_with(0.4))
        path = tmp_path / "p.csv"
        dl.write_pattern_csv(pat, path)
        back = dl.load_pattern_csv(path, n=2, fringe_width=W)
        assert dl.extract_vc(back) == pytest.approx(dl.extract_vc(pat), abs=1e-12)

    def test_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,total\n0.0,1.0\n")
        with pytest.raises(ValueError):
            dl.load_pattern_csv(path, n=2, fringe_width=1.0)

    def test_rows_of_two_columns_name_the_first_line(self, tmp_path):
        # numpy reads these rows as a two-column table, which the shape check
        # then refuses through the row scan
        path = tmp_path / "bad.csv"
        path.write_text("x,total,incoherent\n0.0,1.0\n0.5,2.0\n")
        fragment = f"{path}: line 2: expected 3 columns, got 2"
        with pytest.raises(ValueError, match=re.escape(fragment)):
            dl.load_pattern_csv(path, n=2, fringe_width=1.0)
