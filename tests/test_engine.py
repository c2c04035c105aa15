import cmath
import csv
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import duality_lab as dl
from duality_lab import engine
from duality_lab.coherence import _complex
from duality_lab.engine import SPEED_OF_LIGHT, mutual_intensity, pivoted_cholesky, slit_positions
from exact_reference import exact_pattern, gamma
from optics import DISTANCE, SPACING, WAVELENGTH, W, coherence_with
from test_real_paths import full_pivoted_cholesky

REPO = Path(__file__).resolve().parents[1]


def two_slits(i1=1.0, i2=1.0):
    return dl.SlitArray(intensities=[i1, i2], spacing=SPACING)


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

    @pytest.mark.parametrize("spacing", [True, "5e-5", 5e-5 + 0j, None])
    def test_rejects_spacing_that_is_not_a_real_number(self, spacing):
        # spacing=True once built a SlitArray of spacing True
        with pytest.raises(ValueError, match="spacing must be a real number"):
            dl.SlitArray(intensities=[1.0, 1.0], spacing=spacing)

    def test_rejects_phases_of_wrong_length(self):
        with pytest.raises(ValueError, match="phases must match the intensity vector length"):
            dl.SlitArray(intensities=[1.0, 1.0, 1.0], spacing=SPACING, phases=[0.0, 0.5])

    def test_default_phases_zero(self):
        slits = two_slits()
        assert np.array_equal(slits.phases, np.zeros(2))


@pytest.mark.parametrize(
    "array, hold",
    [
        (np.array([1.0, 0.5]), lambda a: dl.SlitArray(intensities=a, spacing=SPACING).intensities),
        (np.array([0.0, 0.3]),
         lambda a: dl.SlitArray(intensities=[1.0, 1.0], spacing=SPACING, phases=a).phases),
        (np.array([-W, W]),
         lambda a: dl.InterferencePattern(a, [1.0, 2.0], [1.5, 1.5], n=2, fringe_width=W).grid),
        # the pattern intensity_at forms once held the caller's x
        (np.array([0.25 * W]),
         lambda a: np.float64(dl.intensity_at(two_slits(), coherence_with(0.5), geometry(65), a))),
        (np.array([[1.0, 0.0], [0.6, 0.8j]]), lambda a: dl.ModeDecomposition(a).vectors),
        (np.array([[1.0, 0.0], [0.6, 0.8j]]), lambda a: dl.PolarizationSet(a).vectors),
        (np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex),
         lambda a: dl.BeamDensityMatrix(a).rho),
        (np.eye(2, dtype=complex), lambda a: dl.CoherenceMatrix(a).entries),
        (np.array([[1.0], [0.5j]]), lambda a: dl.EnsembleSpec(realizations=1, seed=0, factor=a).factor),
    ],
    ids=[
        "slit_intensities", "slit_phases", "pattern_grid", "intensity_at",
        "mode_vectors", "polarization_vectors", "density_rho", "coherence_entries",
        "ensemble_factor",
    ],
)
def test_keeps_its_own_copy_of_the_callers_array(array, hold):
    # each of these once froze the caller's array and kept it as its own:
    # the write below raised "assignment destination is read-only"
    held = hold(array)
    kept = held.copy()
    array[...] = 0.125
    assert held.tobytes() == kept.tobytes()


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

    @pytest.mark.parametrize(
        "kw, fragment",
        [
            ({"wavelength": 0.0}, "wavelength must be positive"),
            ({"distance": -1.0}, "slit-to-screen distance must be positive"),
            ({"samples": 1}, "need at least 2 grid samples"),
            # a float count once built and made pattern() raise a bare TypeError
            ({"samples": 4096.0}, "samples must be an integer, got 4096.0"),
            ({"samples": 64.5}, "samples must be an integer, got 64.5"),
            ({"samples": True}, "samples must be an integer, got True"),
            ({"phase_model": "paraxial"}, "unknown phase model 'paraxial'"),
        ],
        ids=[
            "wavelength", "distance", "samples", "samples_integral_float", "samples_float",
            "samples_bool", "phase_model",
        ],
    )
    def test_rejects_out_of_range(self, kw, fragment):
        args = {"wavelength": WAVELENGTH, "distance": DISTANCE, "x_min": -0.1, "x_max": 0.1, **kw}
        with pytest.raises(ValueError, match=fragment):
            dl.ScreenGeometry(**args)

    @pytest.mark.parametrize(
        "name, value",
        [("wavelength", True), ("wavelength", "5e-7"), ("distance", False), ("x_min", 0j),
         ("x_max", np.bool_(True)), ("sigma", True), ("sigma", "0.2")],
    )
    def test_rejects_a_real_field_that_is_not_a_real_number(self, name, value):
        # wavelength=True and sigma=True once built, and wavelength="5e-7"
        # raised a bare TypeError from math.isfinite
        args = {"wavelength": WAVELENGTH, "distance": DISTANCE, "x_min": -0.1, "x_max": 0.1,
                "envelope": "gaussian", "sigma": 0.2, name: value}
        with pytest.raises(ValueError, match=f"{name} must be a real number, got {value!r}"):
            dl.ScreenGeometry(**args)

    def test_numpy_real_fields(self):
        geom = dl.ScreenGeometry(np.float32(5e-7), np.int64(1), np.float64(-0.1), 1, samples=64)
        assert geom.grid()[-1] == 1.0

    def test_numpy_integer_samples(self):
        assert dl.ScreenGeometry(WAVELENGTH, DISTANCE, -0.1, 0.1, samples=np.int64(64)).grid().size == 64

    def test_gaussian_needs_sigma(self):
        with pytest.raises(ValueError):
            dl.ScreenGeometry(WAVELENGTH, DISTANCE, -0.1, 0.1, envelope="gaussian")

    @pytest.mark.parametrize("kw", [{}, {"envelope": "uniform"}])
    def test_uniform_envelope_refuses_sigma(self, kw):
        # a sigma was once accepted and ignored under the uniform envelope
        with pytest.raises(ValueError, match="sigma applies to the gaussian envelope only, got sigma=0.2"):
            dl.ScreenGeometry(WAVELENGTH, DISTANCE, -0.1, 0.1, sigma=0.2, **kw)

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

    @pytest.mark.parametrize("x", [[0.0, 0.005], [], np.nan], ids=["two", "none", "nan"])
    def test_intensity_at_refuses_all_but_one_finite_position(self, x):
        # these once returned I(0) alone, raised IndexError and returned nan
        with pytest.raises(ValueError, match="x must be one finite screen position"):
            dl.intensity_at(two_slits(), coherence_with(0.5), geometry(), x)

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

    def test_gaussian_envelope_is_libm_exp(self, monkeypatch):
        # every sample is libm's exp of the same argument, bit for bit, so the
        # envelope does not carry numpy's SIMD float exp, which differs from
        # it in the last bit on some of these arguments
        sigma = 1.3 * W
        geom = geometry(samples=4096, envelope="gaussian", sigma=sigma)
        rng = np.random.default_rng(3500)
        # x = sigma sqrt(2 a) gives the argument -a: the results run down
        # through the subnormals (a from 708.4 to 745.1) to exactly 0 (a above
        # 745.2); x^2 overflows at 1e200, so the argument there is -inf, and
        # at x = +-0 it is -0.0
        edges = sigma * np.sqrt(2.0 * np.array([708.4, 720.0, 745.1, 745.2, 800.0]))
        far = [0.0, -0.0, 1e200, -1e200]
        x = np.concatenate([geom.grid(), sigma * rng.uniform(-38.7, 38.7, 100_000), edges, far])
        ref = np.fromiter(map(math.exp, (-(v * v) / (2.0 * sigma * sigma) for v in x.tolist())), float)
        assert 0.0 in ref and ((0.0 < ref) & (ref < sys.float_info.min)).any()

        def no_libm_exp(arg):
            raise AssertionError("the envelope called math.exp")

        monkeypatch.setattr(math, "exp", no_libm_exp)
        with np.errstate(over="ignore"):  # x^2 at 1e200
            env = geom.envelope_values(x)
            square = geom.envelope_values(x[:4096].reshape(64, 64))
        assert env.tobytes() == ref.tobytes()
        assert square.shape == (64, 64) and square.tobytes() == ref[:4096].tobytes()
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
    the kernel's operations in the kernel's order: the same products, sums,
    math.fsum of the lower diagonals of A and phasor recurrence
    z_k = z_{k-1} z_1 (small angle), or the same pivoted Cholesky factor,
    power-of-two rescale, path excess in cycles reduced by round() (half to
    even, as np.rint) and per-slit sums (exact), with math.sqrt and
    math.cos/math.sin.  Bit equality with the kernel shows that its bytes
    are fixed by its code, IEEE-754 arithmetic and libm, and not by how
    numpy vectorises or reduces.
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
                2.0 * math.fsum(a_re[j + k][j] for j in range(n - k)),
                2.0 * math.fsum(a_im[j + k][j] for j in range(n - k)),
            )
            for k in range(1, n)
        ]
        for x in xs:
            theta = scale * x
            cos, sin = math.cos(theta), math.sin(theta)
            z_re, z_im = cos, sin
            q = incoherent
            for k, (re, im) in enumerate(coeffs, start=1):
                if k > 1:
                    z_re, z_im = z_re * cos - z_im * sin, z_re * sin + z_im * cos
                q = q + re * z_re
                q = q - im * z_im
            totals.append(1.0 * max(q, 0.0))
        return totals
    perm, f_re, f_im = replica_cholesky(a_re, a_im)
    rank = len(f_re[0])
    pos = [((n - 1) / 2.0 - i) * slits.spacing for i in range(n)]
    largest = max(geom.distance, geom.wavelength, *map(abs, xs), *map(abs, pos))
    shift = 510 - math.frexp(largest)[1]
    dist, wave = math.ldexp(geom.distance, shift), math.ldexp(geom.wavelength, shift)
    dist_sq = dist * dist
    for x in xs:
        s_re = [0.0] * rank
        s_im = [0.0] * rank
        for k, i in enumerate(perm):
            d = math.ldexp(x, shift) - math.ldexp(pos[i], shift)
            cycles = d * d / ((math.sqrt(d * d + dist_sq) + dist) * wave)
            theta = 2.0 * math.pi * (cycles - round(cycles))
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
    same pivot choice (first largest remaining diagonal entry), stop rule,
    real path for a real A (every a_im entry +-0: Im F stays +0 and only the
    Re update runs) and order of operations; returns perm and the rows of F
    as lists."""
    n = len(a_re)
    complex_a = any(v != 0.0 for row in a_im for v in row)
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
        col_im = [r_im[i][k] / pivot if complex_a else 0.0 for i in range(n)]
        f_re[k][k] = pivot
        for i in range(k + 1, n):
            f_re[i][k] = col_re[i]
            f_im[i][k] = col_im[i]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                r_re[i][j] = r_re[i][j] - col_re[i] * col_re[j]
                if complex_a:
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
    by that times its weight.  In the exact model delay() forms omega*t_i
    from absolute paths of about geom.distance metres, whose rounding adds
    8*pi*eps*distance/wavelength on that route alone: the kernel's phase
    comes from the path excess over the wavelength and errs by far less
    (the bound is in engine._intensity_samples).
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
    @pytest.mark.parametrize("power", [-600, 600])
    def test_exact_model_is_scale_free(self, power):
        # the exact model's phase depends on x, the slit positions, L and
        # lambda only through their ratios, and the kernel rescales all four
        # by one power of two, so scaling every length by 2^power keeps every
        # bit; at 2^600, (x - pos_i)^2 would overflow unscaled
        slits, coh, geom = random_case(8, "exact")
        factor = 2.0**power
        big = dl.ScreenGeometry(
            geom.wavelength * factor, geom.distance * factor, geom.x_min * factor,
            geom.x_max * factor, samples=geom.samples, phase_model="exact",
        )
        scaled = dl.SlitArray(slits.intensities, slits.spacing * factor, slits.phases)
        assert dl.pattern(scaled, coh, big).total.tolist() == dl.pattern(slits, coh, geom).total.tolist()

    def test_golden_pattern_is_the_kernel(self):
        # every frozen total is the kernel's own arithmetic on the frozen x,
        # byte for byte, so the golden does not carry one numpy build's bits
        scenario, rows = frozen_three_slit()
        xs = [float(x) for x, _, _ in rows]
        ref = kernel_replica(scenario.slits, scenario.coherence, scenario.geometry, xs)
        assert [t for _, t, _ in rows] == [repr(r) for r in ref]

    @pytest.mark.parametrize(
        "n, model",
        [(n, model) for model in ("small_angle", "exact") for n in (2, 3, 5, 8, 32)]
        + [(128, "small_angle")],
    )
    def test_pattern_is_the_kernel(self, n, model):
        slits, coh, geom = random_case(n, model)
        pat = dl.pattern(slits, coh, geom)
        ref = kernel_replica(slits, coh, geom, pat.grid.tolist())
        assert [t.hex() for t in pat.total.tolist()] == [r.hex() for r in ref]


def four_update_samples(slits, geom, x, a_re, a_im):
    """The exact model's q(x) with all four updates of s_m per slit, Re F
    and Im F alike, as the kernel ran them before it skipped the two Im F
    updates of a real factor: the reference for its bytes."""
    n = slits.n
    perm, f_re, f_im = engine.pivoted_cholesky(a_re, a_im)
    rank = f_re.shape[1]
    pos = slit_positions(n, slits.spacing)
    largest = max(geom.distance, geom.wavelength, float(np.max(np.abs(x))), float(np.max(np.abs(pos))))
    shift = 510 - math.frexp(largest)[1]
    x_s, pos_s = np.ldexp(x, shift), np.ldexp(pos, shift).tolist()
    dist_s, wave_s = math.ldexp(geom.distance, shift), math.ldexp(geom.wavelength, shift)
    s_re, s_im = np.zeros((2, rank, x.size))
    for k, i in enumerate(perm.tolist()):
        d = x_s - pos_s[i]
        cycles = d * d / ((np.sqrt(d * d + dist_s * dist_s) + dist_s) * wave_s)
        theta = 2.0 * np.pi * (cycles - np.rint(cycles))
        cos, sin = np.cos(theta), np.sin(theta)
        m = min(k + 1, rank)
        row_re, row_im = f_re[i, :m, None], f_im[i, :m, None]
        s_re[:m] += row_re * cos
        s_re[:m] -= row_im * sin
        s_im[:m] += row_re * sin
        s_im[:m] += row_im * cos
    q = np.zeros_like(x)
    for m in range(rank):
        q += s_re[m] * s_re[m]
        q += s_im[m] * s_im[m]
    return q


class TestRealFactor:
    # the exact kernel skips the Im F updates when F is real; a signed zero
    # added to s can change no bit of q = sum_m |s_m|^2
    @pytest.mark.parametrize("case", ["real", "complex", "negative_zeros"])
    def test_bytes_match_the_four_update_reference(self, monkeypatch, case):
        n = 16
        rng = np.random.default_rng(3100 + n)
        # equal phases make A real: exp(i(alpha_i - alpha_j)) is exactly 1
        phases = rng.uniform(-np.pi, np.pi, n) if case == "complex" else np.full(n, 0.7)
        slits = dl.SlitArray(rng.uniform(0.1, 2.0, n), SPACING, phases)
        if case == "negative_zeros":
            # a real g with negative entries and -0.0 imaginary parts: their
            # A_ij has Im -0.0.  pivoted_cholesky returns Im F as +0 for a
            # real A, so the four-update factorization, whose Im F holds
            # -0.0 entries, is factored in for both routes
            g = dl.from_modes(dl.ModeDecomposition(rng.standard_normal((n, 4)))).entries
            assert (g.real < 0.0).any()
            coh = dl.CoherenceMatrix(_complex(g.real, np.full((n, n), -0.0)))
            monkeypatch.setattr(engine, "pivoted_cholesky", full_pivoted_cholesky)
        else:
            coh = dl.from_modes(dl.ModeDecomposition(rng.uniform(0.0, 1.0, (n, 4))))
        geom = geometry(slits=slits, samples=1025, phase_model="exact")
        a_re, a_im = mutual_intensity(slits, coh)
        f_im = engine.pivoted_cholesky(a_re, a_im)[2]
        assert bool(f_im.any()) == (case == "complex")
        if case == "negative_zeros":
            assert np.signbit(a_im).any() and np.signbit(f_im).any()
        x = geom.grid()
        ref = four_update_samples(slits, geom, x, a_re, a_im)
        assert engine._intensity_samples(slits, geom, x, a_re, a_im).tobytes() == ref.tobytes()
        total = geom.envelope_values(x) * np.maximum(ref, 0.0)
        assert dl.pattern(slits, coh, geom).total.tobytes() == total.tobytes()


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


# libm's cos and sin are within one ulp, so within LIBM_ERR * u of the true
# value on [-1, 1], with u = eps/2 the unit roundoff
LIBM_ERR = 2.0


class TestExactModelReference:
    @pytest.mark.parametrize("n, rank", [(3, 2), (16, 4)])
    def test_pattern_within_its_bound_of_the_50_digit_sum(self, n, rank):
        # pattern().total of the exact model against exact_pattern, the
        # 50-digit sum_ij A_ij e^{ik(r_i - r_j)} of the same float inputs, at
        # 1 m and 500 nm over +-1 fringe width.  With u = eps/2,
        # S = sum_m (sum_i |F_im|)^2 and c the largest path excess in cycles
        # at x, the kernel differs by at most
        #   phase: theta_i within 2 pi u (9 c + 1) (engine comment), and
        #     libm's cos/sin within LIBM_ERR u each, so each phasor is within
        #     delta = 2 pi u (9 c + 1) + sqrt(2) LIBM_ERR u of e^{i theta_i},
        #     and sum_m |s_m|^2 moves by at most S (2 delta + delta^2)
        #   accumulation: each part of s_m is 2n products and sums, so
        #     |s_m| errs by gamma_{2n} 2 sum_i |F_im| and |s_m|^2 by
        #     4 gamma_{2n} (sum_i |F_im|)^2; the 2r squares and sums of q
        #     add gamma_{2r+1} S
        #   factor: |A - F F^H|_ij <= gamma_{2r+2} sum_k |F_ik| |F_jk| in
        #     each part (pivoted_cholesky), at most sqrt(2) gamma_{2r+2} S on
        #     the form, and the dropped residual at most n (n - r) tol, with
        #     tol = n eps max(diag A) (n^2 tol is taken here)
        # where S <= n sum_im |F_im|^2 (Cauchy-Schwarz) <= n T (1 + gamma_{2r+2})
        # with T the trace of A, as sum_m |F_im|^2 is F F^H's diagonal entry.
        # The reference is exact to far below that, and clipping at 0
        # cannot widen the gap.  At the grid points below c <= 110, so the
        # bound is about 2 S 7e-13 and stays under 1e-11 of the peak; a
        # phase formed from absolute paths of about 1 m errs by about
        # 2 pi eps L / lambda = 2.8e-9 rad and misses it.
        rng = np.random.default_rng(2400 + n)
        slits = dl.SlitArray(
            intensities=rng.uniform(0.1, 2.0, n),
            spacing=SPACING,
            phases=rng.uniform(-np.pi, np.pi, n),
        )
        modes = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        coh = dl.from_modes(dl.ModeDecomposition(modes))
        geom = dl.ScreenGeometry(WAVELENGTH, DISTANCE, -W, W, samples=4097, phase_model="exact")
        pat = dl.pattern(slits, coh, geom)
        a_re, a_im = mutual_intensity(slits, coh)
        ar, ai = a_re.tolist(), a_im.tolist()
        pos = slit_positions(n, SPACING).tolist()
        u = sys.float_info.epsilon / 2.0
        trace = math.fsum(slits.intensities.tolist())
        tol = n * sys.float_info.epsilon * float(np.max(a_re.diagonal()))
        peak = float(pat.total.max())
        for k in (0, 1024, 2048, 2049, 3000, 4096):
            x = float(pat.grid[k])
            ref, cycles = exact_pattern(ar, ai, pos, DISTANCE, WAVELENGTH, x)
            delta = 2.0 * math.pi * u * (9.0 * cycles + 1.0) + math.sqrt(2.0) * LIBM_ERR * u
            per_s = 2.0 * delta + delta * delta + 4.0 * gamma(2 * n) + gamma(2 * rank + 1)
            per_s += math.sqrt(2.0) * gamma(2 * rank + 2)
            bound = n * trace * (1.0 + gamma(2 * rank + 2)) * per_s + n * n * tol
            assert bound <= 1e-11 * peak
            error = abs(float(pat.total[k]) - max(ref, 0.0))
            print(f"n={n} x={x:+.4f} cycles={cycles:.1f}: error / peak {error / peak:.2g}, "
                  f"bound / peak {bound / peak:.2g}")
            assert error <= bound, (k, error / peak, bound / peak)


def recurrence_case(n, aligned):
    """Real nonnegative rank-4 modes as in the wide_grating benchmark, with
    zero or random slit phases, on 64 points of the +-4 fringe window."""
    rng = np.random.default_rng(300 + n)
    slits = dl.SlitArray(
        intensities=rng.uniform(0.1, 2.0, n),
        spacing=SPACING,
        phases=None if aligned else rng.uniform(-np.pi, np.pi, n),
    )
    coh = dl.from_modes(dl.ModeDecomposition(rng.uniform(0.0, 1.0, (n, 4))))
    return slits, coh, geometry(slits=slits, samples=64)


class TestSmallAngleRecurrence:
    @pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "random_phases"])
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_within_the_rounding_bound(self, n, aligned):
        # The kernel builds z_k = exp(i k theta) by the recurrence
        # z_k = z_{k-1} z_1; the reference sums per-term math.cos/math.sin of
        # k*scale*x with math.fsum, on the same float coefficients.  To first
        # order in u, with w_k = |2 c_k| and theta = scale*x, they differ by
        # at most u times the sum of
        #   recurrence (engine comment)      sum_k w_k k (|theta| + sqrt(2) (2 + LIBM_ERR))
        #   kernel products, 2n - 2 sums     (2n - 1) (c_0 + sum_k w_k)
        #   reference argument fl(fl(k scale) x)    sum_k w_k 2 k |theta|
        #   reference libm and products      (sqrt(2) LIBM_ERR + 1) sum_k w_k
        #   reference fsum                   |ref|
        slits, coh, geom = recurrence_case(n, aligned)
        pat = dl.pattern(slits, coh, geom)
        a_re, a_im = mutual_intensity(slits, coh)
        c_0 = math.fsum(a_re.diagonal().tolist())
        coeffs = [
            (
                2.0 * math.fsum(a_re.diagonal(-k).tolist()),
                2.0 * math.fsum(a_im.diagonal(-k).tolist()),
            )
            for k in range(1, n)
        ]
        weights = [math.hypot(re, im) for re, im in coeffs]
        weight_sum = math.fsum(weights)
        scale = 2.0 * math.pi * slits.spacing / (geom.wavelength * geom.distance)
        u = sys.float_info.epsilon / 2.0
        worst = 0.0
        for x, total in zip(pat.grid.tolist(), pat.total.tolist()):
            terms = [c_0]
            for k, (re, im) in enumerate(coeffs, start=1):
                terms += [re * math.cos(k * scale * x), -im * math.sin(k * scale * x)]
            ref = math.fsum(terms)
            theta = abs(scale * x)
            per_k = 3.0 * theta + math.sqrt(2.0) * (2.0 + LIBM_ERR)
            bound = u * (
                math.fsum(k * w * per_k for k, w in enumerate(weights, start=1))
                + (2 * n - 1) * (c_0 + weight_sum)
                + (math.sqrt(2.0) * LIBM_ERR + 1.0) * weight_sum
                + abs(ref)
            )
            worst = max(worst, abs(total - max(ref, 0.0)) / bound)
        print(f"n={n} aligned={aligned}: worst |pattern - per-term sum| / bound = {worst:.3g}")
        assert worst <= 1.0


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
    return (*mutual_intensity(slits, coh), rank)


def factor_bits_case(name):
    """(a_re, a_im) of a factor_case name, of random_case(n, "exact") for a
    slit count n, or of the tie case: identity coherence with intensities
    [1, 1, 2]."""
    if name == "tie":
        slits = dl.SlitArray(intensities=[1.0, 1.0, 2.0], spacing=SPACING)
        return mutual_intensity(slits, dl.validate(np.eye(3)))
    if not name.isdigit():
        return factor_case(name)[:2]
    slits, coh, _ = random_case(int(name), "exact")
    return mutual_intensity(slits, coh)


class TestPivotedCholesky:
    @pytest.mark.parametrize("name", ["modes", "random", "identity"])
    def test_stops_at_the_rank(self, name):
        a_re, a_im, rank = factor_case(name)
        perm, f_re, f_im = pivoted_cholesky(a_re, a_im)
        assert f_re.shape == f_im.shape == (a_re.shape[0], rank)
        assert sorted(perm.tolist()) == list(range(a_re.shape[0]))
        # rows come back in slit order; in pivot order F is lower trapezoidal
        # with a real diagonal
        assert np.all(np.triu(f_re[perm], 1) == 0.0) and np.all(np.triu(f_im[perm]) == 0.0)

    # "random" is random_case(32, "exact"), so the exact sizes stop at 8
    @pytest.mark.parametrize("name", ["modes", "random", "identity", "2", "3", "5", "8", "tie"])
    def test_factor_bits_are_the_replica(self, name):
        # replica_cholesky swaps rows and columns of the residual at every
        # pivot and returns F in pivot order; the engine permutes only perm
        # and returns F in slit order.  Both must take the same pivots and
        # give the same bits.
        a_re, a_im = factor_bits_case(name)
        perm, f_re, f_im = pivoted_cholesky(a_re, a_im)
        ref_perm, ref_re, ref_im = replica_cholesky(a_re.tolist(), a_im.tolist())
        assert perm.tolist() == ref_perm
        for got, ref in ((f_re, ref_re), (f_im, ref_im)):
            assert [[v.hex() for v in row] for row in got[perm].tolist()] == [
                [v.hex() for v in row] for row in ref
            ]
        if name == "tie":
            # the first largest of the remaining diagonal [1, 1] in the
            # order of perm[1:] = [1, 0] is slit 1, not slit 0
            assert perm.tolist() == [2, 1, 0]

    @pytest.mark.parametrize("last, rank", [(2.0, 1), (2.5, 2)])
    def test_stops_at_n_eps_max_diag(self, last, rank):
        # tol = n eps max(diag A) = 2 eps: a remaining pivot of 2 eps stops
        a_re = np.diag([1.0, last * sys.float_info.epsilon])
        assert pivoted_cholesky(a_re, np.zeros((2, 2)))[1].shape == (2, rank)

    @pytest.mark.parametrize("name", ["modes", "random", "identity"])
    def test_reproduces_a_within_its_rounding_bound(self, name):
        # Entry (i, j), i >= j in slit order, of E = A - F F^H in exact
        # rational arithmetic.  Entries in a pivot slit's row or column carry
        # the rounding of at most 2r products and subtractions, one division
        # and one sqrt: |E_ij| <= gamma_{2r+2} sum_k |F_ik| |F_jk| for real
        # and imaginary parts alike.  In the dropped block (i and j both in
        # perm[r:]) E is the computed residual plus that rounding; the stop
        # rule caps the residual's diagonal at tol = n eps max(diag A), and a
        # PSD residual has no entry above its largest diagonal one.  So the
        # dropped block moves u A u^H by at most (n - r)^2 tol <= n (n - r) tol
        # for |u_i| = 1.
        a_re, a_im, _ = factor_case(name)
        perm, f_re, f_im = pivoted_cholesky(a_re, a_im)
        n, r = f_re.shape
        half_eps = sys.float_info.epsilon / 2.0
        gamma = (2 * r + 2) * half_eps / (1.0 - (2 * r + 2) * half_eps)
        tol = n * sys.float_info.epsilon * float(np.max(a_re.diagonal()))
        ar, ai, dropped = a_re.tolist(), a_im.tolist(), set(perm[r:].tolist())
        rows = [list(zip(re, im)) for re, im in zip(f_re.tolist(), f_im.tolist())]
        frac = [[(Fraction(v), Fraction(w)) for v, w in row] for row in rows]
        mod = [[math.hypot(v, w) for v, w in row] for row in rows]
        for i in range(n):
            for j in range(i + 1):
                e_re, e_im = Fraction(ar[i][j]), Fraction(0.0 if i == j else ai[i][j])
                for (a, b), (c, d) in zip(frac[i], frac[j]):
                    e_re -= a * c + b * d
                    e_im -= b * c - a * d
                weight = math.fsum(s * t for s, t in zip(mod[i], mod[j]))
                in_dropped = i in dropped and j in dropped
                bound = gamma * weight + ((1.0 + gamma) * tol if in_dropped else 0.0)
                assert abs(e_re) <= bound and abs(e_im) <= bound, (i, j)


class TestCsv:
    @pytest.mark.parametrize(
        "columns",
        [([0.0, 1.0, 2.0], [1.0, 2.0], [1.0, 1.0, 1.0]), ([[0.0, 1.0]], [[1.0, 2.0]], [[1.0, 1.0]])],
        ids=["lengths", "two_d"],
    )
    def test_pattern_columns_of_one_length(self, columns):
        # a shorter total once built, and write_pattern_csv then wrote 2 rows
        with pytest.raises(ValueError, match="pattern columns must be 1-D and of one length"):
            dl.InterferencePattern(*columns, n=2, fringe_width=W)

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
        dl.write_pattern_csv(pat.in_fringe_widths(), path)
        header, first = path.read_text().splitlines()[:2]
        assert header == "x_w,total,incoherent"
        assert float(first.split(",")[0]) == pytest.approx(-4.0)  # window spans +-4 fringes
        # the header, not the fringe width in metres passed here, sets the unit
        back = dl.load_pattern_csv(path, n=2, fringe_width=W)
        assert back.fringe_width == 1.0
        assert np.array_equal(back.grid, pat.grid / W)

    def test_round_trip_at_a_one_metre_fringe_width(self, tmp_path):
        # x in metres equals x in fringe widths here, so the header says x_w
        slits = dl.SlitArray(intensities=[1.0, 0.6], spacing=1e-6)
        geom = dl.ScreenGeometry.over_fringes(slits, 1e-6, 1.0, samples=257)
        assert dl.fringe_width(geom, slits) == 1.0
        pat = dl.pattern(slits, coherence_with(0.5), geom)
        path = tmp_path / "pattern.csv"
        dl.write_pattern_csv(pat, path)
        assert path.read_text().splitlines()[0] == "x_w,total,incoherent"
        back = dl.load_pattern_csv(path, n=2, fringe_width=dl.fringe_width(geom, slits))
        for name in ("grid", "total", "incoherent"):
            assert getattr(back, name).tobytes() == getattr(pat, name).tobytes()
        assert back.fringe_width == 1.0

    @pytest.mark.parametrize(
        "case",
        ["uniform", "gaussian", "scale_w", "signed_zeros", "one_row", "zero_rows"],
    )
    def test_bytes_match_per_row_reference(self, tmp_path, case):
        # the writer formats blocks of rows and a one-value column once; the
        # reference formats every value of every row.  4097 samples cross a
        # block boundary, and 0.0 / -0.0 have equal floats but distinct bits.
        if case in ("signed_zeros", "one_row", "zero_rows"):
            columns = {
                "signed_zeros": ([-1.0, 0.0, 1.0], [2.0, 0.5, 2.0], [0.0, -0.0, 0.0]),
                "one_row": ([0.25], [1.5], [3.0]),
                "zero_rows": ([], [], []),
            }[case]
            pat = dl.InterferencePattern(*columns, n=2, fringe_width=W)
        else:
            envelope = {"envelope": "gaussian", "sigma": 2 * W} if case == "gaussian" else {}
            pat = dl.pattern(two_slits(1.0, 0.3), coherence_with(0.4), geometry(**envelope))
        scale_w = case == "scale_w"
        path = tmp_path / "pattern.csv"
        dl.write_pattern_csv(pat.in_fringe_widths() if scale_w else pat, path)
        xs = pat.grid / pat.fringe_width if scale_w else pat.grid
        rows = zip(xs.tolist(), pat.total.tolist(), pat.incoherent.tolist())
        header = "x_w,total,incoherent\n" if scale_w else "x,total,incoherent\n"
        reference = header + "".join(f"{x!r},{t!r},{inc!r}\n" for x, t, inc in rows)
        assert path.read_bytes() == reference.encode()

    def test_write_deterministic(self, tmp_path):
        slits = two_slits()
        pat = dl.pattern(slits, coherence_with(0.3), geometry(samples=129))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dl.write_pattern_csv(pat, p1)
        dl.write_pattern_csv(pat, p2)
        assert p1.read_bytes() == p2.read_bytes()
