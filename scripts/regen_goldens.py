#!/usr/bin/env python3
"""Regenerate the frozen golden outputs under tests/golden/.

tests/test_cli.py compares these files byte for byte.  There are four
goldens, each a directory of outputs of one input:

    three_slit       scenarios/three_slit.json: a real coherence matrix
    modes_polarized  config.json: mode rows with Jones states, slit phases
    random_phases    config.json: random rank-5 coherence, slit phases
    random_sweep     config.json: a sweep of random full-rank instances

A scenario writes pattern.csv, report.json and convergence.json, a sweep
writes sweep.csv.  Every complex value behind them is formed by elementwise
real arithmetic in a fixed order: the coherence matrix g (Gram products,
Jones rows, moduli), the pattern kernel's form of the mutual intensity, and
the Monte-Carlo oracle's ensemble covariance, drawn from numpy's seeded
Generator stream.  So their bytes rest on IEEE-754 arithmetic plus the
platform libm's cos/sin/hypot, with no LAPACK or BLAS routine and no numpy
complex ufunc; eigvalsh only accepts or refuses a matrix.
The script imports duality_lab from this checkout's src/, not from an
installed copy.
Regenerating the goldens is a change of behaviour: run this only when output
behaviour changes deliberately, review the diff, and log which files and rows
changed, and why, in CHANGES.md; the script prints `new`, `changed` or
`unchanged` for each file:

    python3 scripts/regen_goldens.py
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"


def main() -> int:
    # the checkout's own source, not whatever copy of duality_lab is installed
    sys.path.insert(0, str(REPO / "src"))
    from duality_lab.cli import CONVERGENCE_JSON, PATTERN_CSV, REPORT_JSON, run_scenario, run_sweep

    scenario_files = (PATTERN_CSV, REPORT_JSON, CONVERGENCE_JSON)
    goldens = [
        ("three_slit", REPO / "scenarios" / "three_slit.json", run_scenario, scenario_files),
        ("modes_polarized", GOLDEN / "modes_polarized" / "config.json", run_scenario, scenario_files),
        ("random_phases", GOLDEN / "random_phases" / "config.json", run_scenario, scenario_files),
        ("random_sweep", GOLDEN / "random_sweep" / "config.json", run_sweep, ("sweep.csv",)),
    ]
    for name, config, run, files in goldens:
        out = GOLDEN / name
        out.mkdir(parents=True, exist_ok=True)
        old = {f: (out / f).read_bytes() if (out / f).exists() else None for f in files}
        status = run(config, out)
        if status != 0:
            print(f"{name}: run failed with status {status}", file=sys.stderr)
            return status
        for f in files:
            new = (out / f).read_bytes()
            verdict = "new" if old[f] is None else "unchanged" if new == old[f] else "changed"
            print(f"wrote {out / f}: {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
