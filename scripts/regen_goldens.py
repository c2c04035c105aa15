#!/usr/bin/env python3
"""Regenerate the frozen golden outputs for the bundled three-slit scenario.

tests/test_cli.py compares these files byte for byte.  The pattern bytes rest
on fixed-order IEEE-754 arithmetic plus the platform libm's cos/sin/hypot; the
convergence figure also goes through LAPACK/BLAS in the Monte-Carlo oracle.
Regenerating the goldens is a change of behaviour: run this only when output
behaviour changes deliberately, review the diff, and log which files and rows
changed, and why, in CHANGES.md:

    python3 scripts/regen_goldens.py
"""

import sys
from pathlib import Path

from duality_lab.cli import CONVERGENCE_JSON, PATTERN_CSV, REPORT_JSON, run_scenario

REPO = Path(__file__).resolve().parents[1]


def main() -> int:
    scenario = REPO / "scenarios" / "three_slit.json"
    out = REPO / "tests" / "golden" / "three_slit"
    out.mkdir(parents=True, exist_ok=True)
    status = run_scenario(scenario, out)
    if status != 0:
        print(f"scenario run failed with status {status}", file=sys.stderr)
        return status
    for name in (PATTERN_CSV, REPORT_JSON, CONVERGENCE_JSON):
        print(f"wrote {out / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
