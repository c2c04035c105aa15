import cmath
import csv
import ctypes
import ctypes.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import duality_lab as dl
from duality_lab.engine import SPEED_OF_LIGHT, mutual_intensity, pivoted_cholesky, slit_positions

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

    def test_gaussian_envelope_is_libm_exp(self):
        # every sample is math.exp of the same argument, bit for bit, so the
        # envelope does not carry numpy's SIMD exp
        sigma = 1.3 * W
        geom = geometry(samples=4096, envelope="gaussian", sigma=sigma)
        x = geom.grid()
        ref = [math.exp(-(v * v) / (2.0 * sigma * sigma)) for v in x.tolist()]
        assert geom.envelope_values(x).tolist() == ref
        assert geom.envelope_values(x[7]).tolist() == ref[7]


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
    and math.fsum of the lower diagonals of A (small angle), or the same
    pivoted Cholesky factor and per-slit sums (exact), with math.cos/math.sin
    and the C library's hypot for the libm calls.  Bit equality with the
    kernel shows that its bytes are fixed by its code, IEEE-754 arithmetic
    and libm, and not by how numpy vectorises or reduces.
    """
    assert geom.envelope == "uniform"
    n = slits.n
    g_re, g_im = coh.entries.real.tolist(), coh.entries.imag.tolist()
    inten = slits.intensities.tolist()
    amps = [math.sqrt(v) for v in inten]
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
        a_re[i][i] = inten[i]
    incoherent = math.fsum(inten)
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
    perm, f_re, f_im = replica_cholesky(a_re, a_im)
    rank = len(f_re[0])
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    libm.hypot.restype = ctypes.c_double
    libm.hypot.argtypes = (ctypes.c_double, ctypes.c_double)
    pos = [((n - 1) / 2.0 - i) * slits.spacing for i in range(n)]
    wavenumber = 2.0 * math.pi / geom.wavelength
    for x in xs:
        s_re = [0.0] * rank
        s_im = [0.0] * rank
        for k, i in enumerate(perm):
            theta = wavenumber * libm.hypot(geom.distance, x - pos[i])
            cos, sin = math.cos(theta), math.sin(theta)
            for m in range(min(k + 1, rank)):
                s_re[m] = s_re[m] + f_re[k][m] * cos
                s_re[m] = s_re[m] - f_im[k][m] * sin
                s_im[m] = s_im[m] + f_re[k][m] * sin
                s_im[m] = s_im[m] + f_im[k][m] * cos
        q = 0.0
        for m in range(rank):
            q = q + s_re[m] * s_re[m]
            q = q + s_im[m] * s_im[m]
        totals.append(1.0 * max(q, 0.0))
    return totals


def replica_cholesky(a_re, a_im):
    """engine.pivoted_cholesky on nested lists of Python floats, with the
    same pivot choice (first largest remaining diagonal entry), stop rule and
    order of operations; returns perm and the rows of F as lists."""
    n = len(a_re)
    r_re = [[a_re[i][j] if i >= j else a_re[j][i] for j in range(n)] for i in range(n)]
    r_im = [[a_im[i][j] if i >= j else -a_im[j][i] for j in range(n)] for i in range(n)]
    f_re = [[0.0] * n for _ in range(n)]
    f_im = [[0.0] * n for _ in range(n)]
    perm = list(range(n))
    tol = n * sys.float_info.epsilon * max(a_re[i][i] for i in range(n))
    rank = n
    for k in range(n):
        diag = [r_re[i][i] for i in range(k, n)]
        p = k + diag.index(max(diag))
        if not r_re[p][p] > tol:
            rank = k
            break
        for rows in (r_re, r_im, f_re, f_im, perm):
            rows[k], rows[p] = rows[p], rows[k]
        for rows in (r_re, r_im):
            for row in rows:
                row[k], row[p] = row[p], row[k]
        pivot = math.sqrt(r_re[k][k])
        col_re = [r_re[i][k] / pivot for i in range(n)]
        col_im = [r_im[i][k] / pivot for i in range(n)]
        f_re[k][k] = pivot
        for i in range(k + 1, n):
            f_re[i][k] = col_re[i]
            f_im[i][k] = col_im[i]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                r_re[i][j] = r_re[i][j] - col_re[i] * col_re[j]
                r_re[i][j] = r_re[i][j] - col_im[i] * col_im[j]
                r_im[i][j] = r_im[i][j] - col_im[i] * col_re[j]
                r_im[i][j] = r_im[i][j] + col_re[i] * col_im[j]
    return perm, [row[:rank] for row in f_re], [row[:rank] for row in f_im]


def double_sum_tolerance(slits, geom, weight):
    """Largest difference of two routes to the double sum whose off-diagonal
    terms have total magnitude weight, on geom's grid.

    The routes round the phase argument of term ij differently: each forms
    omega*tau_ij and adds alpha_i - alpha_j + arg g_ij in a few rounded
    steps, so the arguments differ by a few eps times their size, and term ij
    by that times its weight.  The exact model forms omega*t_i from absolute
    paths of about geom.distance metres, whose rounding adds
    8*pi*eps*distance/wavelength.
    """
    eps = np.finfo(float).eps
    scale = 2.0 * np.pi * slits.spacing / (geom.wavelength * geom.distance)
    phase_max = (slits.n - 1) * scale * max(abs(geom.x_min), abs(geom.x_max)) + 3.0 * np.pi
    phase_err = 8.0 * eps * (phase_max + 1.0)
    if geom.phase_model == "exact":
        phase_err += 8.0 * np.pi * eps * geom.distance / geom.wavelength
    return phase_err * weight


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
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 32])
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
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 32])
    def test_pattern_matches_double_sum(self, n, model):
        slits, coh, geom = random_case(n, model)
        pat = dl.pattern(slits, coh, geom)
        ref = np.array([double_sum(slits, coh, geom, x) for x in pat.grid.tolist()])
        amps = np.sqrt(slits.intensities)
        weight = np.sum(np.abs(coh.entries) * np.outer(amps, amps)) - slits.intensities.sum()
        assert np.max(np.abs(pat.total - ref)) <= double_sum_tolerance(slits, geom, weight)


def factor_case(name):
    """(a_re, a_im, rank) of a mutual-intensity matrix: rank-4 modes at
    n=128, random_case's rank 16 at n=32, and the identity at n=16."""
    rng = np.random.default_rng(7)
    if name == "random":
        slits, coh, _ = random_case(32, "exact")
        rank = 16
    else:
        n = 128 if name == "modes" else 16
        slits = dl.SlitArray(
            intensities=rng.uniform(0.1, 2.0, n),
            spacing=SPACING,
            phases=rng.uniform(-np.pi, np.pi, n),
        )
        if name == "modes":
            modes = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
            coh, rank = dl.from_modes(dl.ModeDecomposition(modes)), 4
        else:
            coh, rank = dl.validate(np.eye(n)), n
    return (*mutual_intensity(slits.intensities, coh, slits.phases), rank)


class TestPivotedCholesky:
    @pytest.mark.parametrize("name", ["modes", "random", "identity"])
    def test_stops_at_the_rank(self, name):
        a_re, a_im, rank = factor_case(name)
        perm, f_re, f_im = pivoted_cholesky(a_re, a_im)
        assert f_re.shape == f_im.shape == (a_re.shape[0], rank)
        assert sorted(perm.tolist()) == list(range(a_re.shape[0]))
        assert np.all(np.triu(f_re, 1) == 0.0) and np.all(np.triu(f_im) == 0.0)

    @pytest.mark.parametrize("last, rank", [(2.0, 1), (2.5, 2)])
    def test_stops_at_n_eps_max_diag(self, last, rank):
        # tol = n eps max(diag A) = 2 eps: a remaining pivot of 2 eps stops
        a_re = np.diag([1.0, last * sys.float_info.epsilon])
        assert pivoted_cholesky(a_re, np.zeros((2, 2)))[1].shape == (2, rank)

    @pytest.mark.parametrize("name", ["modes", "random", "identity"])
    def test_reproduces_a_within_its_rounding_bound(self, name):
        # Entry (i, j), i >= j in pivot order, of E = A - F F^H in exact
        # rational arithmetic.  Pivot columns (j < r) carry the rounding of at
        # most 2r products and subtractions, one division and one sqrt:
        # |E_ij| <= gamma_{2r+2} sum_k |F_ik| |F_jk| for real and imaginary
        # parts alike.  In the dropped block (i, j >= r) E is the computed
        # residual plus that rounding; the stop rule caps the residual's
        # diagonal at tol = n eps max(diag A), and a PSD residual has no entry
        # above its largest diagonal one.  So the dropped block moves
        # u A u^H by at most (n - r)^2 tol <= n (n - r) tol for |u_i| = 1.
        a_re, a_im, _ = factor_case(name)
        perm, f_re, f_im = pivoted_cholesky(a_re, a_im)
        n, r = f_re.shape
        half_eps = sys.float_info.epsilon / 2.0
        gamma = (2 * r + 2) * half_eps / (1.0 - (2 * r + 2) * half_eps)
        tol = n * sys.float_info.epsilon * float(np.max(a_re.diagonal()))
        ar, ai, p = a_re.tolist(), a_im.tolist(), perm.tolist()
        rows = [list(zip(re, im)) for re, im in zip(f_re.tolist(), f_im.tolist())]
        frac = [[(Fraction(v), Fraction(w)) for v, w in row] for row in rows]
        mod = [[math.hypot(v, w) for v, w in row] for row in rows]
        for i in range(n):
            for j in range(i + 1):
                hi, lo = max(p[i], p[j]), min(p[i], p[j])
                re = ar[hi][lo]
                im = 0.0 if i == j else (ai[hi][lo] if p[i] > p[j] else -ai[hi][lo])
                e_re, e_im = Fraction(re), Fraction(im)
                for (a, b), (c, d) in zip(frac[i], frac[j]):
                    e_re -= a * c + b * d
                    e_im -= b * c - a * d
                weight = math.fsum(s * t for s, t in zip(mod[i], mod[j]))
                bound = gamma * weight + ((1.0 + gamma) * tol if j >= r else 0.0)
                assert abs(e_re) <= bound and abs(e_im) <= bound, (i, j)


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
