#!/usr/bin/env python3
"""Regenerate the frozen golden outputs under tests/golden/.

tests/test_cli.py compares these files byte for byte.  The goldens, their
input configs and the files each freezes are the table in tests/goldens.py,
and this script writes each through that module's produce(), as the tests
do.  Their bytes rest on IEEE-754 arithmetic in a fixed order, the platform
libm's cos/sin/hypot/exp and numpy's seeded Generator streams (README,
"Byte identity").
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


def main() -> None:
    # the checkout's own source, not whatever copy of duality_lab is installed
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / d) for d in ("src", "tests")]
    from goldens import GOLDENS, ROOT, produce

    for name, (_, files) in GOLDENS.items():
        out = ROOT / name
        old = {f: (out / f).read_bytes() for f in files if (out / f).exists()}
        if status := produce(name, out):
            sys.exit(f"{name}: run failed with status {status}")
        for f in files:
            verdict = "new" if f not in old else "unchanged" if old[f] == (out / f).read_bytes() else "changed"
            print(f"wrote {out / f}: {verdict}")


if __name__ == "__main__":
    main()
