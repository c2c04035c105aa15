"""Each output check accepts the program's real output and rejects a
deliberately corrupted copy of it."""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


# --- three_slit_scenario -------------------------------------------------

@pytest.fixture(scope="module")
def three_slit_output(tmp_path_factory):
    work = tmp_path_factory.mktemp("three_slit")
    wl = workloads.ThreeSlitScenario(ROOT, work, seed=5)
    item = wl.make_item(0)
    codes = wl.run(item)
    return item[2], wl.golden, codes


@pytest.fixture
def three_slit(three_slit_output, tmp_path):
    out, golden, codes = three_slit_output
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy, golden, codes


def test_three_slit_output_passes(three_slit):
    out, golden, codes = three_slit
    assert checks.check_three_slit(out, golden, codes) == []


def test_three_slit_rejects_nonzero_exit(three_slit):
    out, golden, codes = three_slit
    assert checks.check_three_slit(out, golden, (0, 1, 0))


def test_three_slit_rejects_report_byte_change(three_slit):
    out, golden, codes = three_slit
    path = out / "report.json"
    path.write_text(path.read_text().replace('"n": 3', '"n":  3'))
    assert checks.check_three_slit(out, golden, codes)


def test_three_slit_rejects_pattern_off_golden(three_slit):
    out, golden, codes = three_slit
    data = checks.read_pattern_csv(out / "pattern.csv")
    data[100, 1] *= 1.0 + 1e-10
    with open(out / "pattern.csv", "w") as f:
        f.write("x,total,incoherent\n")
        f.writelines(f"{x!r},{t!r},{i!r}\n" for x, t, i in data.tolist())
    assert checks.check_three_slit(out, golden, codes)


def test_three_slit_rejects_missing_pattern_row(three_slit):
    out, golden, codes = three_slit
    path = out / "pattern.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert checks.check_three_slit(out, golden, codes)


def test_three_slit_rejects_convergence_beyond_bound(three_slit):
    out, golden, codes = three_slit
    path = out / "convergence.json"
    conv = json.loads(path.read_text())
    conv["max_rel_dev"] = 1.01 * 5.0 / conv["N"] ** 0.5  # criterion 8
    path.write_text(json.dumps(conv))
    assert checks.check_three_slit(out, golden, codes)


def test_three_slit_rejects_wrong_analytic_visibility(three_slit):
    out, golden, codes = three_slit
    path = out / "analysis.json"
    result = json.loads(path.read_text())
    result["v_c_analytic"] = np.nextafter(result["v_c_analytic"], 1.0)
    path.write_text(json.dumps(result))
    assert checks.check_three_slit(out, golden, codes)


def test_three_slit_rejects_missing_output(three_slit):
    out, golden, codes = three_slit
    (out / "convergence.json").unlink()
    assert checks.check_three_slit(out, golden, codes)


def test_mismatch_rows_counts_differing_rows(three_slit):
    out, golden, _ = three_slit
    lines = (golden / "pattern.csv").read_text().splitlines(keepends=True)
    lines[7] = lines[7].replace(",", ", ", 1)
    (out / "pattern.csv").write_text("".join(lines))
    assert checks.mismatch_rows(out / "pattern.csv", golden / "pattern.csv") == 1


# --- wide_grating ----------------------------------------------------------

def _wide_result(phase_model):
    wl = workloads.WideGrating(ROOT, None, seed=3)
    rng = np.random.default_rng(0)
    n = 16
    item = (n, "gaussian", phase_model, rng.uniform(0.1, 1.0, n),
            rng.uniform(0.0, 1.0, (n, workloads.WIDE_RANK)), np.array([5, 2000, 4000]))
    return wl, item, wl.run(item)


def _with_total(result, total):
    slits, coh, geometry, pat, v_c, report = result
    return slits, coh, geometry, replace(pat, total=total), v_c, report


@pytest.mark.parametrize("phase_model", ["small_angle", "exact"])
def test_wide_grating_output_passes(phase_model):
    wl, item, result = _wide_result(phase_model)
    assert wl.check(item, result) == []


def test_wide_grating_rejects_negative_total():
    wl, item, result = _wide_result("small_angle")
    total = result[3].total.copy()
    total[1234] = -1e-3
    assert wl.check(item, _with_total(result, total))


@pytest.mark.parametrize("phase_model, rel", [("small_angle", 1e-8), ("exact", 1e-6)])
def test_wide_grating_rejects_total_off_double_sum(phase_model, rel):
    wl, item, result = _wide_result(phase_model)
    total = result[3].total.copy()
    total[item[5][1]] += rel * total.max()
    assert wl.check(item, _with_total(result, total))


# --- sweep_batch -------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_output(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    wl = workloads.SweepBatch(ROOT, work, seed=9)
    code = wl.run(wl.make_item(1))
    return (wl.out / "sweep.csv").read_text(), wl.instances, code


def _edit_row(text, index, **values):
    lines = text.splitlines()
    names = checks.SWEEP_HEADER.split(",")
    row = dict(zip(names, lines[index].split(",")))
    row.update({k: repr(v) for k, v in values.items()})
    lines[index] = ",".join(row[k] for k in names)
    return "\n".join(lines) + "\n"


def test_sweep_output_passes(sweep_output):
    text, instances, code = sweep_output
    assert checks.check_sweep(text, instances, code) == []


def test_sweep_rejects_nonzero_exit(sweep_output):
    text, instances, _ = sweep_output
    assert checks.check_sweep(text, instances, 2)


def test_sweep_rejects_pythagorean_violation(sweep_output):
    text, instances, code = sweep_output
    problems = checks.check_sweep(_edit_row(text, 3, d=0.9, d_prime=0.1, v_c=0.5, c=0.5),
                                  instances, code)
    assert len(problems) == 1 and "D^2 + V_C^2 > 1" in problems[0]


def test_sweep_rejects_linear_violation(sweep_output):
    text, instances, code = sweep_output
    problems = checks.check_sweep(_edit_row(text, 3, d=0.1, d_prime=0.6, v_c=0.5, c=0.5),
                                  instances, code)
    assert len(problems) == 1 and "D' + V_C > 1" in problems[0]


def test_sweep_rejects_measure_outside_unit_interval(sweep_output):
    text, instances, code = sweep_output
    problems = checks.check_sweep(_edit_row(text, 5, gamma_n=1.25), instances, code)
    assert len(problems) == 1 and "gamma_n outside [0, 1]" in problems[0]


def test_sweep_rejects_c_not_equal_vc(sweep_output):
    text, instances, code = sweep_output
    lines = text.splitlines()
    v_c = float(lines[4].split(",")[2])
    problems = checks.check_sweep(_edit_row(text, 4, c=v_c + 1e-13), instances, code)
    assert len(problems) == 1 and "|C - V_C|" in problems[0]


def test_sweep_rejects_wrong_instance_count(sweep_output):
    text, instances, code = sweep_output
    lines = text.splitlines()
    assert checks.check_sweep("\n".join(lines[:2] + lines[3:]) + "\n", instances, code)
    summary = lines[-1].replace(f"instances={instances}", f"instances={instances + 1}")
    assert checks.check_sweep("\n".join(lines[:-1] + [summary]) + "\n", instances, code)


# --- tracer ---------------------------------------------------------------------

def test_tracer_records_spans_and_restores_functions():
    from duality_lab import engine

    original = engine.pattern
    wl, item, _ = _wide_result("exact")
    tracer = tracing.Tracer()
    tracer.item = 0
    tracer.install()
    try:
        wl.run(item)
    finally:
        tracer.uninstall()
    assert engine.pattern is original
    metrics = tracer.layer_metrics(1)
    assert metrics["engine.pattern.exact.calls"] == 1
    assert metrics["engine.pattern.small_angle.calls"] == 0
    assert metrics["coherence.from_modes.calls"] == 1
    assert metrics["coherence.validate.calls"] == 1
    assert metrics["engine.pattern.cells"] == 16 * workloads.WIDE_SAMPLES
    # from_modes calls validate: its self time excludes the child span
    spans = {s[0]: s for s in tracer.spans}
    outer, inner = spans["coherence.from_modes"], spans["coherence.validate"]
    assert inner[3] == tracer.spans.index(outer)
    assert metrics["coherence.from_modes.self_ms"] == pytest.approx(
        (outer[2] - outer[1] - (inner[2] - inner[1])) / 1e6)
