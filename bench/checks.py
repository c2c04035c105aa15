"""Output checks for the benchmark workloads.

Each check takes one item's outputs and returns a list of problems; an empty
list means the output is correct.  The checks never call a function the
tracer wraps, so they add no spans, and they run outside the timed region.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from duality_lab import engine

# The duality relations hold to this tolerance (the program's own verdicts use
# the same value, but the check recomputes the left-hand sides from the
# reported measures instead of trusting the reported ones).
RELATION_TOL = 1e-12
# Criterion 7: the l1 coherence of the path-basis density matrix equals V_C.
C_EQUALS_VC_TOL = 1e-14
# pattern.csv against the frozen golden, elementwise relative.
GOLDEN_REL_TOL = 1e-12
# Analytic pattern against the independent double sum, relative to the peak.
DOUBLE_SUM_REL_TOL = 1e-9

SWEEP_HEADER = "n,seed,v_c,d,d_prime,gamma_n,c,pyth_lhs,lin_lhs"
SWEEP_MEASURES = ("v_c", "d", "d_prime", "gamma_n", "c")


def read_pattern_csv(path) -> np.ndarray:
    """Rows of an `x,total,incoherent` CSV as an (rows, 3) float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)


def mismatch_rows(path, golden_path) -> int:
    """Number of data rows whose bytes differ from the golden file's rows."""
    got = Path(path).read_bytes().splitlines()
    want = Path(golden_path).read_bytes().splitlines()
    differing = sum(a != b for a, b in zip(got, want))
    return differing + abs(len(got) - len(want))


def convergence_bound(realizations: int) -> float:
    """Criterion 8: the MC pattern's largest deviation, relative to the
    analytic peak, stays within 5/sqrt(N)."""
    return 5.0 / math.sqrt(realizations)


def check_three_slit(out_dir, golden_dir, exit_codes) -> list[str]:
    """Outputs of one `three_slit_scenario` item against the frozen goldens."""
    out = Path(out_dir)
    golden = Path(golden_dir)
    problems = [f"exit code {code}" for code in exit_codes if code != 0]
    try:
        if (out / "report.json").read_bytes() != (golden / "report.json").read_bytes():
            problems.append("report.json differs from the golden bytes")
        got = read_pattern_csv(out / "pattern.csv")
        want = read_pattern_csv(golden / "pattern.csv")
        if got.shape != want.shape:
            problems.append(f"pattern.csv shape {got.shape}, golden {want.shape}")
        else:
            rel = np.abs(got - want) / np.maximum(np.abs(want), np.finfo(float).tiny)
            worst = float(rel.max())
            if not worst <= GOLDEN_REL_TOL:
                problems.append(f"pattern.csv off the golden by {worst:.3e} relative")
        conv = json.loads((out / "convergence.json").read_text())
        bound = convergence_bound(conv["N"])
        if not conv["max_rel_dev"] <= bound:
            problems.append(
                f"convergence max_rel_dev {conv['max_rel_dev']:.4g} > 5/sqrt(N) = {bound:.4g}"
            )
        analysis = json.loads((out / "analysis.json").read_text())
        want_vc = json.loads((golden / "report.json").read_text())["v_c"]
        if analysis["v_c_analytic"] != want_vc:
            problems.append(
                f"analysis.json v_c_analytic {analysis['v_c_analytic']!r} != golden {want_vc!r}"
            )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def double_sum_intensity(slits, coh, geometry, x: float) -> float:
    """I(x) from the double sum in the engine's module docstring, built on the
    scalar public `engine.delay()` rather than on the engine's quadratic form:

        env(x) * [sum_i I_i + sum_{i != j} sqrt(I_i I_j) |g_ij|
                  cos(omega * tau_ij(x) + alpha_i - alpha_j + arg g_ij)]

    The (i, j) and (j, i) terms are equal (tau_ji = -tau_ij and the phase is
    antisymmetric), so each unordered pair is evaluated once and doubled.
    """
    inten = slits.intensities
    alpha = slits.phases
    mag = np.abs(coh.entries)
    arg = np.angle(coh.entries)
    omega = geometry.omega
    total = float(inten.sum())
    for i in range(slits.n):
        for j in range(i + 1, slits.n):
            phase = omega * engine.delay(geometry, slits, i, j, x) + alpha[i] - alpha[j] + arg[i, j]
            total += 2.0 * math.sqrt(inten[i] * inten[j]) * mag[i, j] * math.cos(phase)
    return float(geometry.envelope_values(x)) * total


def double_sum_tolerance(geometry) -> float:
    """Tolerance of the double-sum agreement, relative to the pattern peak.

    The small-angle model gets the plain 1e-9.  The exact model forms every
    delay from absolute path lengths of about `distance`, each rounded to
    eps * distance, so both routes carry phase errors up to about
    2*pi*eps*distance/wavelength per pair (2.8e-9 rad at 1 m and 500 nm);
    the tolerance adds four times that.
    """
    if geometry.phase_model == "small_angle":
        return DOUBLE_SUM_REL_TOL
    eps = np.finfo(float).eps
    return DOUBLE_SUM_REL_TOL + 4.0 * 2.0 * math.pi * eps * geometry.distance / geometry.wavelength


def double_sum_deviation(pat, slits, coh, geometry, indices) -> float:
    """Largest |pattern.total - double sum| at the given grid indices, relative
    to the pattern peak."""
    peak = float(pat.total.max())
    devs = [
        abs(float(pat.total[i]) - double_sum_intensity(slits, coh, geometry, float(pat.grid[i])))
        for i in indices
    ]
    return max(devs) / peak


def check_wide_grating(pat, slits, coh, geometry, indices) -> tuple[list[str], float]:
    """Checks of one `wide_grating` item; also returns the double-sum deviation."""
    problems = []
    if not np.all(pat.total >= 0.0):
        problems.append(f"negative total intensity, min {float(pat.total.min()):.3e}")
    dev = double_sum_deviation(pat, slits, coh, geometry, indices)
    tol = double_sum_tolerance(geometry)
    if not dev <= tol:
        problems.append(f"pattern off the double sum by {dev:.3e} of peak > {tol:.3e}")
    return problems, dev


def check_sweep(text: str, expected_instances: int, exit_code: int) -> list[str]:
    """Checks of one `sweep.csv`: both relations, measures in [0, 1], C == V_C
    and the summary row's instance count."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return problems + ["sweep.csv header missing or wrong"]
    rows = lines[1:-1]
    if len(rows) != expected_instances:
        problems.append(f"{len(rows)} instance rows, expected {expected_instances}")
    summary = lines[-1].split(",")
    if summary[:2] != ["summary", f"instances={expected_instances}"]:
        problems.append(f"summary row {lines[-1][:60]!r} does not count {expected_instances}")
    names = SWEEP_HEADER.split(",")
    for line in rows:
        try:
            row = dict(zip(names, line.split(",")))
            val = {k: float(row[k]) for k in SWEEP_MEASURES}
        except (KeyError, ValueError):
            problems.append(f"unparsable row {line[:60]!r}")
            continue
        where = f"n={row['n']} seed={row['seed']}"
        bad = [k for k in SWEEP_MEASURES if not 0.0 <= val[k] <= 1.0]
        if bad:
            problems.append(f"{where}: {', '.join(bad)} outside [0, 1]")
        if not val["d"] ** 2 + val["v_c"] ** 2 <= 1.0 + RELATION_TOL:
            problems.append(f"{where}: D^2 + V_C^2 > 1")
        if not val["d_prime"] + val["v_c"] <= 1.0 + RELATION_TOL:
            problems.append(f"{where}: D' + V_C > 1")
        if not abs(val["c"] - val["v_c"]) <= C_EQUALS_VC_TOL:
            problems.append(f"{where}: |C - V_C| = {abs(val['c'] - val['v_c']):.3e}")
    return problems
