"""Acceptance gate: each test checks one numbered criterion at its stated
tolerance and prints a one-line verdict (run with `pytest -s` to see them).
"""

import json
import math
import time

import numpy as np
import pytest

import duality_lab as dl
from duality_lab.cli import run_sweep
from duality_lab.oracle import mc_pattern

from exact_reference import EPS, bounds, deviations, exact
from optics import DISTANCE, SPACING, WAVELENGTH, W, aligned_coherence, coherence_with


def verdict(num, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ensemble():
    # 10^4 random (intensities, coherence) instances, n in {2..8}
    rng = np.random.default_rng(20260811)
    instances = []
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n + 1))
        coh = dl.random_coherence(n, rank, seed=int(rng.integers(0, 2**63)))
        intensities = rng.dirichlet(np.ones(n)) * rng.uniform(0.1, 10.0)
        instances.append((intensities, coh))
    return instances


def test_criterion_01_two_slit_reduction():
    rng = np.random.default_rng(1)
    worst_closed = 0.0
    for _ in range(1000):
        i1, i2 = rng.uniform(0.05, 5.0, 2)
        g = rng.uniform(0.0, 1.0)
        vc = dl.visibility_analytic([i1, i2], coherence_with(g))
        closed = g * 2.0 * math.sqrt(i1 * i2) / (i1 + i2)
        worst_closed = max(worst_closed, abs(vc - closed))
    worst_michelson = 0.0
    for k in range(1000):
        g = rng.uniform(0.0, 1.0)
        i0 = rng.uniform(0.1, 4.0)
        slits = dl.SlitArray(intensities=[i0, i0], spacing=SPACING)
        # odd sample count puts x = 0 and the fringe extrema on the grid
        geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=4097)
        pat = dl.pattern(slits, coherence_with(g), geom)
        vc = dl.visibility_analytic([i0, i0], coherence_with(g))
        worst_michelson = max(worst_michelson, abs(dl.extract_michelson(pat) - vc))
    ok = worst_closed <= 1e-12 and worst_michelson <= 1e-6
    verdict(
        1, ok,
        f"two-slit reduction: closed-form dev {worst_closed:.2e} (<=1e-12), "
        f"michelson dev {worst_michelson:.2e} (<=1e-6)",
    )


@pytest.fixture(scope="module")
def checked(ensemble):
    # (report, deviations from the 50-digit reference, derived bounds)
    out = []
    for intensities, coh in ensemble:
        rep, ref = dl.duality_report(intensities, coh), exact(intensities, coh)
        out.append((rep, deviations(rep, ref), bounds(coh.n, ref)))
    return out


def against_reference(checked, key):
    """Worst deviation of one report field from the 50-digit reference, in
    eps, the worst deviation over its derived bound, and the bound range."""
    devs = [getattr(dev, key) for _, dev, _ in checked]
    limits = [getattr(bound, key) for _, _, bound in checked]
    ratio = max(d / b if b else (0.0 if d == 0.0 else math.inf) for d, b in zip(devs, limits))
    return max(devs) / EPS, ratio, min(limits) / EPS, max(limits) / EPS


def test_criterion_02_pythagorean_identity(checked):
    worst, ratio, low, high = against_reference(checked, "pyth")
    verdict(
        2, ratio <= 1.0,
        f"pyth_lhs vs 50-digit 1 - s^2 + V_C^2: worst {worst:.2f} eps, "
        f"{ratio:.2f} of its bound from counted rounding steps ({low:.2f}..{high:.1f} eps) "
        f"over 10^4",
    )


def test_criterion_03_pythagorean_inequality_and_saturation(checked):
    max_lhs = max(rep.pyth_lhs for rep, _, _ in checked)
    rng = np.random.default_rng(3)
    worst_sat = 0.0
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        coh = dl.random_coherence(n, 1, seed=int(rng.integers(0, 2**63)))
        intensities = rng.dirichlet(np.ones(n)) * rng.uniform(0.1, 10.0)
        worst_sat = max(worst_sat, abs(dl.duality_report(intensities, coh).pyth_lhs - 1.0))
    ok = max_lhs <= 1.0 + 1e-12 and worst_sat <= 1e-9
    verdict(
        3, ok,
        f"pythagorean inequality: max lhs - 1 = {max_lhs - 1.0:.2e} (<=1e-12), "
        f"rank-1 saturation dev {worst_sat:.2e} (<=1e-9)",
    )


def test_criterion_04_linear_identity_and_saturation(checked):
    worst, ratio, low, high = against_reference(checked, "lin")
    max_lhs = max(rep.lin_lhs for rep, _, _ in checked)
    rng = np.random.default_rng(4)
    worst_sat = 0.0
    for _ in range(1000):
        i1, i2 = rng.uniform(0.01, 10.0, 2)
        lhs = dl.duality_report([i1, i2], coherence_with(1.0)).lin_lhs
        worst_sat = max(worst_sat, abs(lhs - 1.0))
    ok = ratio <= 1.0 and max_lhs <= 1.0 + 1e-12 and worst_sat <= 1e-12
    verdict(
        4, ok,
        f"lin_lhs vs 50-digit 1 - s + V_C: worst {worst:.2f} eps, {ratio:.2f} of its bound "
        f"from counted rounding steps ({low:.2f}..{high:.1f} eps); max lhs - 1 = {max_lhs - 1.0:.2e} "
        f"(<=1e-12), n=2 saturation dev {worst_sat:.2e} (<=1e-12)",
    )


def test_criterion_05_distinguishability_limits():
    exact = True
    for n in (2, 3, 5, 8):
        single = [0.0] * n
        single[0] = 1.0
        exact &= dl.distinguishability(single) == 1.0
        exact &= dl.distinguishability_prime(single) == 1.0
        for c in (1.0, 0.3, 2.5, 1e-3, 7.77):
            exact &= dl.distinguishability([c] * n) == 0.0
            exact &= dl.distinguishability_prime([c] * n) == 0.0
    verdict(5, exact, "single-slit limit D = D' = 1 and equal-intensity limit 0, exact")


def test_criterion_06_operational_vs_analytic_visibility():
    rng = np.random.default_rng(6)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(2, 7))
        intensities = rng.uniform(0.05, 2.0, n)
        coh = aligned_coherence(n, int(rng.integers(0, 2**32)))
        slits = dl.SlitArray(intensities=intensities, spacing=SPACING)
        geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=4096)
        pat = dl.pattern(slits, coh, geom)
        worst = max(worst, abs(dl.extract_vc(pat) - dl.visibility_analytic(intensities, coh)))
    verdict(6, worst <= 1e-6, f"operational vs analytic visibility dev {worst:.2e} (<=1e-6)")


def test_criterion_07_quantum_bridge(ensemble):
    worst_bridge = 0.0
    worst_equal = 0.0
    rng = np.random.default_rng(7)
    for intensities, coh in ensemble:
        c = dl.quantum_coherence(dl.density_from_beams(intensities, coh))
        worst_bridge = max(worst_bridge, abs(c - dl.visibility_analytic(intensities, coh)))
        equal = np.full(coh.n, rng.uniform(0.1, 10.0))
        worst_equal = max(
            worst_equal,
            abs(dl.visibility_analytic(equal, coh) - dl.degree_of_coherence(coh)),
        )
    ok = worst_bridge <= 1e-14 and worst_equal <= 1e-14
    verdict(
        7, ok,
        f"quantum bridge |C - V_C| {worst_bridge:.2e} and equal-intensity "
        f"|V_C - gamma_n| {worst_equal:.2e} (<=1e-14)",
    )


def test_criterion_08_mc_oracle_convergence():
    slits = dl.SlitArray(intensities=[1.0, 0.7, 0.4], spacing=SPACING)
    coh = aligned_coherence(3, 31)
    geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=4096)
    analytic = dl.pattern(slits, coh, geom)
    peak = int(np.argmax(analytic.total))
    devs = []
    elapsed_1e5 = None
    for n_real in (1_000, 10_000, 100_000):
        start = time.perf_counter()
        mc = mc_pattern(slits, coh, geom, n_real, seed=4)
        if n_real == 100_000:
            elapsed_1e5 = time.perf_counter() - start
        devs.append(abs(mc.total[peak] - analytic.total[peak]) / analytic.total[peak])
    within = all(d <= 5.0 / np.sqrt(n) for d, n in zip(devs, (1_000, 10_000, 100_000)))
    monotone = devs[0] > devs[1] > devs[2]
    ok = within and monotone and elapsed_1e5 <= 30.0
    verdict(
        8, ok,
        f"mc convergence devs {[f'{d:.4f}' for d in devs]} within 5/sqrt(N), "
        f"monotone={monotone}, N=1e5 runtime {elapsed_1e5:.1f}s (<=30s)",
    )


def test_criterion_09_grating_equivalence():
    worst = 0.0
    worst_spacing = 0.0
    for n in range(2, 7):
        slits = dl.SlitArray(intensities=np.ones(n), spacing=SPACING)
        geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=4096)
        pat = dl.pattern(slits, coherence_with(1.0, n=n), geom)
        theta = np.pi * pat.grid / W
        sin_t = np.sin(theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.sin(n * theta) ** 2 / sin_t**2
        closed = np.where(np.abs(sin_t) < 1e-9, float(n * n), ratio)
        worst = max(worst, float(np.max(np.abs(pat.total - closed))))
        first = dl.find_primary_max(pat)
        second = dl.find_primary_max(pat, window=(first.x_star + 0.5 * W, first.x_star + 1.5 * W))
        step = pat.grid[1] - pat.grid[0]
        worst_spacing = max(worst_spacing, abs((second.x_star - first.x_star) - W) / step)
    ok = worst <= 1e-9 and worst_spacing <= 1.0
    verdict(
        9, ok,
        f"grating equivalence dev {worst:.2e} (<=1e-9), peak spacing off by "
        f"{worst_spacing:.2f} grid steps (<=1)",
    )


def test_criterion_10_determinism(tmp_path):
    coh_same = dl.random_coherence(5, 3, seed=123).to_json() == dl.random_coherence(5, 3, seed=123).to_json()
    slits = dl.SlitArray(intensities=[1.0, 0.7, 0.4], spacing=SPACING)
    coh = aligned_coherence(3, 31)
    geom = dl.ScreenGeometry.over_fringes(slits, WAVELENGTH, DISTANCE, samples=512)
    mc_same = (
        mc_pattern(slits, coh, geom, 2000, seed=4).total.tobytes()
        == mc_pattern(slits, coh, geom, 2000, seed=4).total.tobytes()
    )
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "schema": 1,
        "sweep": {"n_min": 2, "n_max": 4, "seeds": 25, "rank_policy": "full", "seed": 9},
    }))
    assert run_sweep(sweep_cfg, tmp_path / "a") == 0
    assert run_sweep(sweep_cfg, tmp_path / "b") == 0
    sweep_same = (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()
    ok = coh_same and mc_same and sweep_same
    verdict(
        10, ok,
        f"determinism: coherence={coh_same}, mc_pattern={mc_same}, sweep_csv={sweep_same}",
    )
