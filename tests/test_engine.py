import cmath
import csv
import ctypes
import ctypes.util
import math
from pathlib import Path

import numpy as np
import pytest

import duality_lab as dl
from duality_lab.engine import SPEED_OF_LIGHT, slit_positions

REPO = Path(__file__).resolve().parents[1]

WAVELENGTH = 500e-9
DISTANCE = 1.0
SPACING = 50e-6
W = WAVELENGTH * DISTANCE / SPACING  # 0.01 m


def two_slits(i1=1.0, i2=1.0):
    return dl.SlitArray(intensities=[i1, i2], spacing=SPACING)


def coherence_with(g, n=2):
    m = np.ones((n, n), dtype=complex) * g
    np.fill_diagonal(m, 1.0)
    return dl.validate(m)


def geometry(samples=4097, **kw):
    slits = kw.pop("slits", two_slits())
    return dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=samples, **kw)


class TestSlitArray:
    def test_rejects_single_slit(self):
        with pytest.raises(ValueError, match="at least 2"):
            dl.SlitArray(intensities=[1.0], spacing=SPACING)

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            dl.SlitArray(intensities=[1.0, -0.1], spacing=SPACING)

    def test_rejects_all_dark(self):
        with pytest.raises(ValueError):
            dl.SlitArray(intensities=[0.0, 0.0], spacing=SPACING)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            dl.SlitArray(intensities=[1.0, 1.0], spacing=0.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"intensities": [np.nan, 1.0]},
            {"intensities": [np.inf, 1.0]},
            {"spacing": np.inf},
            {"spacing": np.nan},
            {"phases": [0.0, np.nan]},
            {"intensities": [1e308] * 3},  # finite entries, overflowing sum
            {"intensities": [8e307, 8e307]},  # finite sum, overflowing pattern peak
        ],
    )
    def test_rejects_non_finite(self, kw):
        args = {"intensities": [1.0, 1.0], "spacing": SPACING, **kw}
        with pytest.raises(ValueError, match="finite"):
            dl.SlitArray(**args)

    def test_default_phases_zero(self):
        slits = two_slits()
        assert np.array_equal(slits.phases, np.zeros(2))


class TestScreenGeometry:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            dl.ScreenGeometry(WAVELENGTH, DISTANCE, x_min=0.1, x_max=-0.1)

    @pytest.mark.parametrize(
        "kw",
        [
            {"wavelength": np.inf},
            {"distance": np.inf},
            {"x_min": -np.inf},
            {"x_max": np.nan},
            {"envelope": "gaussian", "sigma": np.inf},
        ],
    )
    def test_rejects_non_finite(self, kw):
        args = {"wavelength": WAVELENGTH, "distance": DISTANCE, "x_min": -0.1, "x_max": 0.1, **kw}
        with pytest.raises(ValueError, match="must be finite"):
            dl.ScreenGeometry(**args)

    def test_gaussian_needs_sigma(self):
        with pytest.raises(ValueError):
            dl.ScreenGeometry(WAVELENGTH, DISTANCE, -0.1, 0.1, envelope="gaussian")

    def test_unknown_envelope(self):
        with pytest.raises(ValueError):
            dl.ScreenGeometry(WAVELENGTH, DISTANCE, -0.1, 0.1, envelope="lorentzian")

    def test_omega_positive(self):
        geom = geometry()
        assert geom.omega == pytest.approx(2 * np.pi * SPEED_OF_LIGHT / WAVELENGTH)


class TestDelay:
    def test_same_slit_zero(self):
        slits = two_slits()
        for model in ("small_angle", "exact"):
            geom = geometry(phase_model=model)
            assert dl.delay(geom, slits, 1, 1, 0.003) == 0.0

    def test_fringe_width_gives_full_cycle(self):
        # adjacent slits, x = one fringe width: omega * tau = 2 pi
        slits = two_slits()
        geom = geometry()
        tau = dl.delay(geom, slits, 1, 0, W)
        assert geom.omega * tau == pytest.approx(2.0 * np.pi, rel=1e-12)

    def test_exact_mode_antisymmetric(self):
        slits = dl.SlitArray(intensities=[1.0, 1.0, 1.0], spacing=SPACING)
        geom = geometry(slits=slits, phase_model="exact")
        for x in (0.0, 0.004, -0.0123):
            for i in range(3):
                for j in range(3):
                    tij = dl.delay(geom, slits, i, j, x)
                    tji = dl.delay(geom, slits, j, i, x)
                    assert tij == pytest.approx(-tji, abs=1e-30)

    def test_exact_matches_small_angle_near_axis(self):
        slits = two_slits()
        sm = geometry(phase_model="small_angle")
        ex = geometry(phase_model="exact")
        x = W / 7.0
        t_sm = dl.delay(sm, slits, 1, 0, x)
        t_ex = dl.delay(ex, slits, 1, 0, x)
        # paraxial correction is O((d/L)^2) relative
        assert t_ex == pytest.approx(t_sm, rel=1e-4)

    def test_index_out_of_range(self):
        slits = two_slits()
        with pytest.raises(IndexError):
            dl.delay(geometry(), slits, 0, 2, 0.0)

    def test_positions_centred(self):
        pos = slit_positions(5, SPACING)
        assert pos.sum() == pytest.approx(0.0, abs=1e-18)
        assert np.all(np.diff(pos) < 0)


class TestPattern:
    def test_two_slit_textbook(self):
        slits = two_slits()
        pat = dl.pattern(slits, coherence_with(1.0), geometry())
        expected = 2.0 * (1.0 + np.cos(2.0 * np.pi * pat.grid / W))
        assert np.max(np.abs(pat.total - expected)) < 1e-10
        assert dl.intensity_at(slits, coherence_with(1.0), geometry(), 0.0) == pytest.approx(4.0)

    def test_identity_coherence_kills_interference(self):
        slits = dl.SlitArray(intensities=[1.0, 0.5, 0.8, 0.2], spacing=SPACING)
        geom = geometry(slits=slits)
        pat = dl.pattern(slits, dl.validate(np.eye(4)), geom)
        assert np.max(np.abs(pat.total - pat.incoherent)) < 1e-12

    def test_three_slit_full_coherence_peak(self):
        slits = dl.SlitArray(intensities=[1.0, 1.0, 1.0], spacing=SPACING)
        geom = geometry(slits=slits)
        peak = dl.intensity_at(slits, coherence_with(1.0, n=3), geom, 0.0)
        assert peak == pytest.approx(9.0, rel=1e-12)

    def test_single_open_slit_flat(self):
        slits = dl.SlitArray(intensities=[1.0, 0.0, 0.0], spacing=SPACING)
        geom = geometry(slits=slits)
        for x in (0.0, 0.25 * W, 3.0 * W):
            assert dl.intensity_at(slits, coherence_with(0.7, n=3), geom, x) == pytest.approx(1.0)

    def test_partial_coherence_point_value(self):
        # hand evaluation: 1 + 1 + 2*sqrt(1*1)*0.5*cos(0) = 3
        slits = two_slits()
        assert dl.intensity_at(slits, coherence_with(0.5), geometry(), 0.0) == pytest.approx(3.0, rel=1e-12)

    def test_destructive_null_at_half_fringe(self):
        slits = two_slits()
        v = dl.intensity_at(slits, coherence_with(1.0), geometry(), W / 2.0)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_and_bounded(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            slits = dl.SlitArray(
                intensities=rng.uniform(0.0, 2.0, n) + 1e-3,
                spacing=SPACING,
                phases=rng.uniform(-np.pi, np.pi, n),
            )
            coh = dl.random_coherence(n, int(rng.integers(1, n + 1)), seed=seed)
            pat = dl.pattern(slits, coh, geometry(slits=slits, samples=1024))
            assert np.all(pat.total >= 0.0)
            assert np.all(pat.incoherent >= 0.0)
            # coherent term can add at most (n-1) times the incoherent one
            bound = (n - 1) * pat.incoherent + 1e-9
            assert np.all(np.abs(pat.total - pat.incoherent) <= bound)

    def test_linear_in_overall_intensity(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0.1, 2.0, 3)
        coh = dl.random_coherence(3, 2, seed=8)
        for c in (0.25, 7.0):
            slits_a = dl.SlitArray(intensities=base, spacing=SPACING)
            slits_b = dl.SlitArray(intensities=c * base, spacing=SPACING)
            geom = geometry(slits=slits_a, samples=513)
            pa = dl.pattern(slits_a, coh, geom)
            pb = dl.pattern(slits_b, coh, geom)
            assert np.allclose(pb.total, c * pa.total, rtol=1e-12)
            assert np.allclose(pb.incoherent, c * pa.incoherent, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            dl.pattern(two_slits(), coherence_with(0.5, n=3), geometry())

    def test_grating_equivalence(self):
        # closed-form check: I0 * sin^2(n pi x / w) / sin^2(pi x / w)
        for n in range(2, 7):
            slits = dl.SlitArray(intensities=np.ones(n), spacing=SPACING)
            geom = geometry(slits=slits, samples=4096)
            pat = dl.pattern(slits, coherence_with(1.0, n=n), geom)
            theta = np.pi * pat.grid / W
            sin_t = np.sin(theta)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.sin(n * theta) ** 2 / sin_t**2
            closed = np.where(np.abs(sin_t) < 1e-9, float(n * n), ratio)
            assert np.max(np.abs(pat.total - closed)) < 1e-9

    def test_gaussian_envelope_shapes_incoherent_reference(self):
        slits = two_slits()
        sigma = 2.0 * W
        geom = geometry(envelope="gaussian", sigma=sigma)
        pat = dl.pattern(slits, coherence_with(1.0), geom)
        expected = 2.0 * np.exp(-pat.grid**2 / (2.0 * sigma**2))
        assert np.allclose(pat.incoherent, expected, rtol=1e-12)
        assert pat.total[0] < pat.total[len(pat.total) // 2]


def double_sum(slits, coh, geom, x):
    """I(x) from the double sum in the engine module docstring, evaluated in
    stdlib scalars on the public delay() for a uniform envelope:

        sum_i I_i + sum_{i != j} sqrt(I_i I_j) |g_ij|
                    cos(omega * tau_ij(x) + alpha_i - alpha_j + arg g_ij)
    """
    assert geom.envelope == "uniform"
    inten = slits.intensities.tolist()
    alpha = slits.phases.tolist()
    g = coh.entries.tolist()
    terms = list(inten)
    for i in range(slits.n):
        for j in range(slits.n):
            if i != j:
                phase = (
                    geom.omega * dl.delay(geom, slits, i, j, x)
                    + alpha[i] - alpha[j] + cmath.phase(g[i][j])
                )
                terms.append(math.sqrt(inten[i] * inten[j]) * abs(g[i][j]) * math.cos(phase))
    return math.fsum(terms)


def kernel_replica(slits, coh, geom, xs):
    """pattern().total for a uniform envelope, rebuilt in Python floats with
    the kernel's operations in the kernel's order: the same products, sums
    and math.fsum of the lower diagonals of A, with math.cos/math.sin and the
    C library's hypot for the libm calls.  Bit equality with the kernel shows
    that its bytes are fixed by its code, IEEE-754 arithmetic and libm, and
    not by how numpy vectorises or reduces.
    """
    assert geom.envelope == "uniform"
    n = slits.n
    g_re, g_im = coh.entries.real.tolist(), coh.entries.imag.tolist()
    amps = [math.sqrt(v) for v in slits.intensities.tolist()]
    alpha = slits.phases.tolist()
    a_re = [[0.0] * n for _ in range(n)]
    a_im = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            re = 0.5 * (g_re[i][j] + g_re[j][i])
            im = 0.5 * (g_im[i][j] - g_im[j][i])
            cos, sin = math.cos(alpha[i] - alpha[j]), math.sin(alpha[i] - alpha[j])
            weight = amps[i] * amps[j]
            a_re[i][j] = weight * (re * cos - im * sin)
            a_im[i][j] = weight * (re * sin + im * cos)
    incoherent = math.fsum(slits.intensities.tolist())
    totals = []
    if geom.phase_model == "small_angle":
        scale = 2.0 * math.pi * slits.spacing / (geom.wavelength * geom.distance)
        coeffs = [
            (
                k * scale,
                2.0 * math.fsum(a_re[j + k][j] for j in range(n - k)),
                2.0 * math.fsum(a_im[j + k][j] for j in range(n - k)),
            )
            for k in range(1, n)
        ]
        for x in xs:
            q = incoherent
            for kscale, re, im in coeffs:
                q = q + re * math.cos(kscale * x)
                q = q - im * math.sin(kscale * x)
            totals.append(1.0 * max(q, 0.0))
        return totals
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    libm.hypot.restype = ctypes.c_double
    libm.hypot.argtypes = (ctypes.c_double, ctypes.c_double)
    pos = [((n - 1) / 2.0 - i) * slits.spacing for i in range(n)]
    wavenumber = 2.0 * math.pi / geom.wavelength
    for x in xs:
        theta = [wavenumber * libm.hypot(geom.distance, x - p) for p in pos]
        cos = [math.cos(t) for t in theta]
        sin = [math.sin(t) for t in theta]
        v_re = [0.0] * n
        v_im = [0.0] * n
        for i in range(1, n):
            for j in range(i):
                v_re[j] = v_re[j] + a_re[i][j] * cos[i]
                v_re[j] = v_re[j] - a_im[i][j] * sin[i]
                v_im[j] = v_im[j] + a_re[i][j] * sin[i]
                v_im[j] = v_im[j] + a_im[i][j] * cos[i]
        q = incoherent
        for j in range(n - 1):
            q = q + 2.0 * (v_re[j] * cos[j] + v_im[j] * sin[j])
        totals.append(1.0 * max(q, 0.0))
    return totals


def frozen_three_slit():
    scenario = dl.load_scenario(REPO / "scenarios" / "three_slit.json")
    with open(REPO / "tests" / "golden" / "three_slit" / "pattern.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["x", "total", "incoherent"]
    assert len(rows) == 1 + scenario.geometry.samples
    return scenario, rows[1:]


def random_case(n, model):
    rng = np.random.default_rng(100 + n)
    slits = dl.SlitArray(
        intensities=rng.uniform(0.1, 2.0, n),
        spacing=SPACING,
        phases=rng.uniform(-np.pi, np.pi, n),
    )
    coh = dl.random_coherence(n, max(1, n // 2), seed=n)
    return slits, coh, geometry(slits=slits, samples=257, phase_model=model)


class TestKernelBits:
    def test_golden_pattern_is_the_kernel(self):
        # every frozen total is the kernel's own arithmetic on the frozen x,
        # byte for byte, so the golden does not carry one numpy build's bits
        scenario, rows = frozen_three_slit()
        xs = [float(x) for x, _, _ in rows]
        ref = kernel_replica(scenario.slits, scenario.coherence, scenario.geometry, xs)
        assert [t for _, t, _ in rows] == [repr(r) for r in ref]

    @pytest.mark.parametrize("model", ["small_angle", "exact"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_pattern_is_the_kernel(self, n, model):
        slits, coh, geom = random_case(n, model)
        pat = dl.pattern(slits, coh, geom)
        ref = kernel_replica(slits, coh, geom, pat.grid.tolist())
        assert [t.hex() for t in pat.total.tolist()] == [r.hex() for r in ref]


class TestDoubleSumReference:
    def test_golden_pattern_is_the_double_sum(self):
        # the frozen three-slit pattern is the documented formula, not just a
        # snapshot of the kernel: every row agrees to rounding of the phase
        scenario, rows = frozen_three_slit()
        frozen = [(float(x), float(t)) for x, t, _ in rows]
        ref = [
            double_sum(scenario.slits, scenario.coherence, scenario.geometry, x)
            for x, _ in frozen
        ]
        peak = max(ref)
        worst = max(abs(t - r) for (_, t), r in zip(frozen, ref))
        assert worst <= 1e-13 * peak

    @pytest.mark.parametrize("model", ["small_angle", "exact"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_pattern_matches_double_sum(self, n, model):
        slits, coh, geom = random_case(n, model)
        pat = dl.pattern(slits, coh, geom)
        ref = np.array([double_sum(slits, coh, geom, x) for x in pat.grid.tolist()])
        # The two routes round the phase argument of term ij differently: each
        # forms omega*tau_ij and adds alpha_i - alpha_j + arg g_ij in a few
        # rounded steps, so the arguments differ by a few eps times their
        # size, and term ij by that times its weight sqrt(I_i I_j)|g_ij|.
        # The exact model forms omega*t_i from absolute paths of about
        # DISTANCE metres, whose rounding adds 8*pi*eps*DISTANCE/WAVELENGTH.
        eps = np.finfo(float).eps
        scale = 2.0 * np.pi * SPACING / (WAVELENGTH * DISTANCE)
        phase_max = (n - 1) * scale * np.max(np.abs(pat.grid)) + 3.0 * np.pi
        phase_err = 8.0 * eps * (phase_max + 1.0)
        if model == "exact":
            phase_err += 8.0 * np.pi * eps * DISTANCE / WAVELENGTH
        amps = np.sqrt(slits.intensities)
        weight = np.sum(np.abs(coh.entries) * np.outer(amps, amps)) - slits.intensities.sum()
        assert np.max(np.abs(pat.total - ref)) <= phase_err * weight


class TestCsv:
    def test_round_trip(self, tmp_path):
        slits = two_slits()
        pat = dl.pattern(slits, coherence_with(0.5), geometry(samples=257))
        path = tmp_path / "pattern.csv"
        dl.write_pattern_csv(pat, path)
        assert path.read_text().splitlines()[0] == "x,total,incoherent"
        back = dl.load_pattern_csv(path, n=2, fringe_width=W)
        assert np.array_equal(back.grid, pat.grid)
        assert np.array_equal(back.total, pat.total)
        assert np.array_equal(back.incoherent, pat.incoherent)

    def test_round_trip_scaled_by_fringe_width(self, tmp_path):
        slits = two_slits()
        pat = dl.pattern(slits, coherence_with(0.5), geometry(samples=257))
        path = tmp_path / "pattern_w.csv"
        dl.write_pattern_csv(pat, path, scale_w=True)
        first = path.read_text().splitlines()[1].split(",")
        assert float(first[0]) == pytest.approx(-4.0)  # window spans +-4 fringes
        back = dl.load_pattern_csv(path, n=2, fringe_width=W, scale_w=True)
        assert np.allclose(back.grid, pat.grid, rtol=1e-15)

    def test_write_deterministic(self, tmp_path):
        slits = two_slits()
        pat = dl.pattern(slits, coherence_with(0.3), geometry(samples=129))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dl.write_pattern_csv(pat, p1)
        dl.write_pattern_csv(pat, p2)
        assert p1.read_bytes() == p2.read_bytes()
