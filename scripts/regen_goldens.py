#!/usr/bin/env python3
"""Regenerate the frozen golden outputs for the bundled three-slit scenario.

tests/test_cli.py compares these files byte for byte.  Both patterns are the
same fixed-order kernel's form of their own matrix, so their bytes rest on
IEEE-754 arithmetic plus the platform libm's cos/sin/hypot: in the
small-angle model one cos/sin pair per sample, then multiplies and adds.
The convergence figure's matrix, the Monte-Carlo oracle's ensemble
covariance, is built in the same fixed-order arithmetic from numpy's seeded
Generator stream, with no LAPACK or BLAS routine.
The script imports duality_lab from this checkout's src/, not from an
installed copy.
Regenerating the goldens is a change of behaviour: run this only when output
behaviour changes deliberately, review the diff, and log which files and rows
changed, and why, in CHANGES.md; the script prints `changed` or `unchanged`
for each file:

    python3 scripts/regen_goldens.py
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def main() -> int:
    # the checkout's own source, not whatever copy of duality_lab is installed
    sys.path.insert(0, str(REPO / "src"))
    from duality_lab.cli import CONVERGENCE_JSON, PATTERN_CSV, REPORT_JSON, run_scenario

    scenario = REPO / "scenarios" / "three_slit.json"
    out = REPO / "tests" / "golden" / "three_slit"
    out.mkdir(parents=True, exist_ok=True)
    names = (PATTERN_CSV, REPORT_JSON, CONVERGENCE_JSON)
    old = {name: (out / name).read_bytes() if (out / name).exists() else None for name in names}
    status = run_scenario(scenario, out)
    if status != 0:
        print(f"scenario run failed with status {status}", file=sys.stderr)
        return status
    for name in names:
        verdict = "unchanged" if (out / name).read_bytes() == old[name] else "changed"
        print(f"wrote {out / name}: {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
