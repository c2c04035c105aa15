"""Real coherence takes the short paths: when every imaginary input is +-0,
the small-angle kernel, coherence._product, engine.mutual_intensity,
coherence._modulus and engine.pivoted_cholesky skip the arithmetic whose
result is exactly +-0.

Each site is compared bit for bit with a copy, kept here, of the full complex
route it takes for complex input, on real instances with their signed-zero
edges (-0 phases, -0 mode entries, -0 imaginary parts of g, dark slits,
rank 1) and on complex ones.  The skips are pinned by the calls they save.
"""

import math

import numpy as np
import pytest

import duality_lab as dl
from duality_lab import coherence, engine, oracle
from duality_lab.coherence import _complex, _modulus, _product, _set_diagonal, _unit_gram
from duality_lab.engine import mutual_intensity
from optics import DISTANCE, SPACING, WAVELENGTH


def full_product(a_re, a_im, b_re, b_im):
    """coherence._product's complex route: both parts of every term."""
    shape = np.broadcast_shapes(a_re.shape[:-1] + (1,), b_re.shape[:-2] + b_re.shape[-1:])
    out_re, out_im = np.zeros(shape), np.zeros(shape)
    t, u = np.empty(shape), np.empty(shape)
    for k in range(b_re.shape[-2]):
        ar, ai = a_re[..., k, None], a_im[..., k, None]
        br, bi = b_re[..., k, :], b_im[..., k, :]
        np.multiply(ar, br, out=t)
        np.multiply(ai, bi, out=u)
        out_re += np.subtract(t, u, out=t)
        np.multiply(ar, bi, out=t)
        np.multiply(ai, br, out=u)
        out_im += np.add(t, u, out=t)
    return _complex(out_re, out_im)


def full_modulus(z):
    """coherence._modulus's complex route: libm's hypot of both parts."""
    return np.hypot(z.real, z.imag)


def full_mutual_intensity(slits, coh):
    """engine.mutual_intensity's complex route: cos and sin of every phase
    difference."""
    inten, phases, g = slits.intensities, slits.phases, coh.entries
    amps = np.sqrt(inten)
    weight = amps[:, None] * amps[None, :]
    dphi = phases[:, None] - phases[None, :]
    cos, sin = np.cos(dphi), np.sin(dphi)
    a_re = weight * (g.real * cos - g.imag * sin)
    a_im = weight * (g.real * sin + g.imag * cos)
    _set_diagonal(a_re, inten)
    return a_re, a_im


def full_small_angle(slits, geometry, x, a_re, a_im):
    """The small-angle branch of engine._intensity_samples with the Im c_k
    sum and update of every harmonic."""
    q = np.full(x.shape, math.fsum(a_re.diagonal().tolist()))
    scale = 2.0 * np.pi * slits.spacing / (geometry.wavelength * geometry.distance)
    theta = scale * x
    cos, sin = np.cos(theta), np.sin(theta)
    z_re, z_im = cos.copy(), sin.copy()
    re_next, term = np.empty_like(x), np.empty_like(x)
    for k in range(1, slits.n):
        if k > 1:
            np.multiply(z_re, cos, out=re_next)
            np.multiply(z_im, sin, out=term)
            re_next -= term
            np.multiply(z_re, sin, out=term)
            z_im *= cos
            z_im += term
            z_re, re_next = re_next, z_re
        re = 2.0 * math.fsum(a_re.diagonal(-k).tolist())
        im = 2.0 * math.fsum(a_im.diagonal(-k).tolist())
        np.multiply(z_re, re, out=term)
        q += term
        np.multiply(z_im, im, out=term)
        q -= term
    return q


def full_pivoted_cholesky(a_re, a_im):
    """engine.pivoted_cholesky's complex route: the Im column and all four
    updates of R -= c c^H at every step."""
    n = a_re.shape[0]
    lower = np.tri(n, dtype=bool)
    r_re = np.where(lower, a_re, a_re.T)
    r_im = np.where(lower, a_im, -a_im.T)
    f_re, f_im = np.zeros((2, n, n))
    perm = np.arange(n)
    tol = n * np.finfo(float).eps * np.max(a_re.diagonal())
    rank = n
    for k in range(n):
        j = k + int(np.argmax(r_re.diagonal()[perm[k:]]))
        p = perm[j]
        if not r_re[p, p] > tol:
            rank = k
            break
        perm[j], perm[k] = perm[k], p
        pivot = math.sqrt(r_re[p, p])
        rest = perm[k + 1 :]
        col_re, col_im = f_re[:, k], f_im[:, k]
        col_re[rest] = r_re[rest, p] / pivot
        col_im[rest] = r_im[rest, p] / pivot
        col_re[p] = pivot
        r_re -= np.multiply.outer(col_re, col_re)
        r_re -= np.multiply.outer(col_im, col_im)
        r_im -= np.multiply.outer(col_im, col_re)
        r_im += np.multiply.outer(col_re, col_im)
    return perm, f_re[:, :rank], f_im[:, :rank]


def with_zeros(rng, a, share=0.3):
    """a with a random share of its entries set to -0.0."""
    a = np.array(a, dtype=float)
    a[rng.random(a.shape) < share] = -0.0
    return a


REAL_KINDS = ("equal_phases", "signed_zero_phases", "negative_zero_modes", "negative_zero_imag", "dark_slits", "rank_one")
COMPLEX_KINDS = ("slit_phases", "complex_modes")


def instance(kind, seed):
    """Slits, mode rows (re, im) and coherence of one random instance; A is
    real for every kind in REAL_KINDS and complex for COMPLEX_KINDS."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    rank = 1 if kind == "rank_one" else int(rng.integers(1, n + 2))
    inten = rng.uniform(0.1, 2.0, n)
    if kind == "dark_slits":
        inten[rng.permutation(n)[: max(1, n // 3)]] = 0.0
    phases = np.full(n, rng.uniform(-np.pi, np.pi))
    if kind in ("signed_zero_phases", "negative_zero_imag"):
        phases = rng.choice([0.0, -0.0], n)
    elif kind == "slit_phases":
        phases = rng.uniform(-np.pi, np.pi, n)
    re = rng.standard_normal((n, rank))
    im = np.zeros((n, rank))
    if kind == "negative_zero_modes":
        re, im = with_zeros(rng, re), with_zeros(rng, im, 0.5)
        re[np.flatnonzero(~re.any(axis=1)), 0] = 1.0  # no zero rows
    elif kind == "complex_modes":
        im = rng.standard_normal((n, rank))
    coh = dl.from_modes(dl.ModeDecomposition(_complex(re, im)))
    if kind == "negative_zero_imag":
        coh = dl.CoherenceMatrix(_complex(coh.entries.real, np.full((n, n), -0.0)))
    return dl.SlitArray(inten, SPACING, phases), (re, im), coh


CASES = [(kind, seed) for kind in REAL_KINDS + COMPLEX_KINDS for seed in range(3300, 3306)]


def real_a(kind):
    return kind in REAL_KINDS


def counting(monkeypatch, owner, name):
    """Count the calls of owner.name, which still runs."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def bits(*arrays):
    return [a.tobytes() for a in arrays]


class TestProduct:
    @pytest.mark.parametrize("kind, seed", CASES)
    def test_gram_bytes_match_full_route(self, kind, seed):
        _, (re, im), _ = instance(kind, seed)
        norm = coherence._row_norms(re, im)[:, None]
        u_re, u_im = re / norm, im / norm
        h_re, h_im = u_re.T[None], -u_im.T[None]
        assert bits(_product(u_re, u_im, h_re, h_im)) == bits(full_product(u_re, u_im, h_re, h_im))
        assert bits(_unit_gram(re, im).entries) == bits(full_product(u_re, u_im, h_re, h_im))

    @pytest.mark.parametrize("imag", ["+0", "-0", "mixed", "complex"])
    def test_batched_bytes_match_full_route(self, imag):
        rng = np.random.default_rng(3310)
        a_re, b_re = with_zeros(rng, rng.standard_normal((5, 7, 4))), with_zeros(rng, rng.standard_normal((5, 1, 4, 6)))
        parts = {
            "+0": (np.zeros(a_re.shape), np.zeros(b_re.shape)),
            "-0": (np.full(a_re.shape, -0.0), np.full(b_re.shape, -0.0)),
            "mixed": (with_zeros(rng, np.zeros(a_re.shape), 0.5), with_zeros(rng, np.zeros(b_re.shape), 0.5)),
            "complex": (np.zeros(a_re.shape), rng.standard_normal(b_re.shape)),
        }
        a_im, b_im = parts[imag]
        out = _product(a_re, a_im, b_re, b_im)
        assert bits(out) == bits(full_product(a_re, a_im, b_re, b_im))
        if imag != "complex":
            assert not np.signbit(out.imag).any()

    @pytest.mark.parametrize("pols", [[[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]], [[1.0, 0.0], [0.6, 0.8j], [0.0, 1.0]]])
    @pytest.mark.parametrize("kind", ["equal_phases", "negative_zero_modes", "complex_modes"])
    def test_from_modes_bytes_match_full_route(self, monkeypatch, kind, pols):
        # real Jones states take the real route for m_i (x) p_i, too
        _, (re, im), _ = instance(kind, 3320)
        decomp = dl.ModeDecomposition(_complex(re[:3], im[:3]))
        pol_set = dl.PolarizationSet(np.array(pols, dtype=complex))
        short = [dl.from_modes(decomp).entries, dl.from_modes(decomp, pol_set).entries]
        monkeypatch.setattr(coherence, "_product", full_product)
        full = [dl.from_modes(decomp).entries, dl.from_modes(decomp, pol_set).entries]
        assert bits(*short) == bits(*full)

    @pytest.mark.parametrize("imag", [0.0, -0.0, 0.5])
    def test_real_operands_skip_the_imaginary_terms(self, monkeypatch, imag):
        q = 4
        a_re, b_re = np.ones((3, q)), np.ones((q, 2))
        a_im, b_im = np.zeros((3, q)), np.full((q, 2), imag)
        calls = {name: counting(monkeypatch, np, name) for name in ("multiply", "subtract", "add")}
        _product(a_re, a_im, b_re, b_im)
        counts = {name: len(c) for name, c in calls.items()}
        if imag:
            assert counts == {"multiply": 4 * q, "subtract": q, "add": q}
        else:
            assert counts == {"multiply": q, "subtract": 0, "add": 0}


class TestModulus:
    @pytest.mark.parametrize("imag", ["+0", "-0", "mixed", "complex"])
    def test_bytes_match_hypot(self, imag):
        rng = np.random.default_rng(3330)
        re = with_zeros(rng, rng.standard_normal((6, 6)))
        re[0, :4] = [np.inf, -np.inf, 5e-324, -1e308]
        im = {
            "+0": np.zeros(re.shape),
            "-0": np.full(re.shape, -0.0),
            "mixed": with_zeros(rng, np.zeros(re.shape), 0.5),
            "complex": rng.standard_normal(re.shape),
        }[imag]
        z = _complex(re, im)
        assert bits(_modulus(z)) == bits(full_modulus(z))

    @pytest.mark.parametrize("kind, seed", CASES)
    def test_magnitudes_and_report_match_full_route(self, monkeypatch, kind, seed):
        slits, _, coh = instance(kind, seed)
        short = coh.magnitudes(), dl.duality_report(slits.intensities, coh)
        monkeypatch.setattr(coherence, "_modulus", full_modulus)
        assert bits(short[0]) == bits(coh.magnitudes())
        assert short[1].to_json() == dl.duality_report(slits.intensities, coh).to_json()

    @pytest.mark.parametrize("imag", [0.0, -0.0, 1e-300])
    def test_real_input_takes_no_hypot(self, monkeypatch, imag):
        calls = counting(monkeypatch, np, "hypot")
        _modulus(_complex(np.array([3.0, -4.0]), np.full(2, imag)))
        assert len(calls) == (imag != 0.0)


class TestMutualIntensity:
    @pytest.mark.parametrize("kind, seed", CASES)
    def test_bytes_match_full_route(self, kind, seed):
        slits, _, coh = instance(kind, seed)
        a_re, a_im = mutual_intensity(slits, coh)
        assert bits(a_re, a_im) == bits(*full_mutual_intensity(slits, coh))
        assert bool(a_im.any()) != real_a(kind)

    @pytest.mark.parametrize("phases, libm_calls", [([0.7] * 4, 0), ([0.0, -0.0, 0.0, -0.0], 0), ([0.7, 0.7, 0.7, 0.1], 1)])
    def test_equal_phases_take_no_cos(self, monkeypatch, phases, libm_calls):
        slits = dl.SlitArray([1.0, 0.5, 0.8, 0.3], SPACING, phases)
        coh = dl.random_coherence(4, 2, seed=3340)
        cos, sin = counting(monkeypatch, np, "cos"), counting(monkeypatch, np, "sin")
        mutual_intensity(slits, coh)
        assert (len(cos), len(sin)) == (libm_calls, libm_calls)


class TestSmallAngleKernel:
    @pytest.mark.parametrize("kind, seed", CASES)
    def test_bytes_match_full_route(self, kind, seed):
        slits, _, coh = instance(kind, seed)
        geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=257)
        x = geom.grid()
        a_re, a_im = mutual_intensity(slits, coh)
        q = engine._intensity_samples(slits, geom, x, a_re, a_im)
        assert bits(q) == bits(full_small_angle(slits, geom, x, a_re, a_im))

    @pytest.mark.parametrize("kind", ["equal_phases", "negative_zero_imag", "slit_phases"])
    def test_real_a_takes_half_the_sums(self, monkeypatch, kind):
        # the trace and one sum per harmonic, against two per harmonic
        slits, _, coh = instance(kind, 3350)
        n = slits.n
        geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=16)
        a_re, a_im = mutual_intensity(slits, coh)
        calls = counting(monkeypatch, math, "fsum")
        engine._intensity_samples(slits, geom, geom.grid(), a_re, a_im)
        assert len(calls) == 1 + (n - 1 if real_a(kind) else 2 * (n - 1))


class TestPivotedCholesky:
    @pytest.mark.parametrize("kind, seed", CASES)
    def test_bytes_match_full_route(self, kind, seed):
        # a real A keeps perm and the values of Re F bit for bit; only the
        # sign of a zero entry can differ (a dark slit's row), and Im F is +0
        slits, _, coh = instance(kind, seed)
        a_re, a_im = mutual_intensity(slits, coh)
        perm, f_re, f_im = engine.pivoted_cholesky(a_re, a_im)
        ref_perm, ref_re, ref_im = full_pivoted_cholesky(a_re, a_im)
        assert bits(perm) == bits(ref_perm)
        if real_a(kind):
            assert bits(f_re + 0.0) == bits(ref_re + 0.0)
            assert f_im.shape == ref_im.shape and not (f_im.any() or np.signbit(f_im).any())
            assert not ref_im.any()
        else:
            assert bits(f_re, f_im) == bits(ref_re, ref_im)

    @pytest.mark.parametrize("kind", ["equal_phases", "negative_zero_imag", "dark_slits", "rank_one", "slit_phases"])
    def test_real_a_takes_one_update(self, monkeypatch, kind):
        # R_re -= Re c Re c^T alone per step, against all four updates
        slits, _, coh = instance(kind, 3370)
        a_re, a_im = mutual_intensity(slits, coh)
        outer = []
        multiply = np.multiply

        class Counting:
            @staticmethod
            def outer(a, b):
                outer.append(1)
                return multiply.outer(a, b)

        monkeypatch.setattr(np, "multiply", Counting)
        rank = engine.pivoted_cholesky(a_re, a_im)[1].shape[1]
        assert len(outer) == (1 if real_a(kind) else 4) * rank


def full_samples(original):
    """engine._intensity_samples with the full small-angle route."""

    def samples(slits, geometry, x, a_re, a_im):
        if geometry.phase_model == "small_angle":
            return full_small_angle(slits, geometry, x, a_re, a_im)
        return original(slits, geometry, x, a_re, a_im)

    return samples


def outputs(slits, coh):
    """The bytes of everything the five sites reach: g, A, the report,
    three realized fields, and the analytic and Monte-Carlo patterns of
    both phase models."""
    out = [coh.entries.tobytes(), *bits(*engine.mutual_intensity(slits, coh))]
    out.append(dl.duality_report(slits.intensities, coh).to_json())
    spec = dl.ensemble_spec(slits, coh, 100, 3360)
    out.append(dl.realize_fields(spec, np.arange(3)).tobytes())
    for model in engine.PHASE_MODELS:
        geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=129, phase_model=model)
        out.append(dl.pattern(slits, coh, geom).total.tobytes())
        out.append(dl.mc_pattern(slits, coh, geom, 100, 3360).total.tobytes())
    return out


# in dark_slits 3302 some zeros of Re F have other signs than the full
# route's; no output byte may move
@pytest.mark.parametrize("kind, seed", CASES[::3] + [("dark_slits", 3302)])
def test_outputs_match_the_full_routes(monkeypatch, kind, seed):
    slits, (re, im), coh = instance(kind, seed)
    short = outputs(slits, coh)
    monkeypatch.setattr(coherence, "_product", full_product)
    monkeypatch.setattr(oracle, "_product", full_product)
    monkeypatch.setattr(coherence, "_modulus", full_modulus)
    monkeypatch.setattr(engine, "mutual_intensity", full_mutual_intensity)
    monkeypatch.setattr(oracle, "mutual_intensity", full_mutual_intensity)
    monkeypatch.setattr(engine, "_intensity_samples", full_samples(engine._intensity_samples))
    monkeypatch.setattr(engine, "pivoted_cholesky", full_pivoted_cholesky)
    monkeypatch.setattr(oracle, "pivoted_cholesky", full_pivoted_cholesky)
    # g again through the full Gram product, unless it was set by hand
    if kind != "negative_zero_imag":
        coh = dl.from_modes(dl.ModeDecomposition(_complex(re, im)))
    assert outputs(slits, coh) == short
