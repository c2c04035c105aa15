#!/usr/bin/env python3
"""Print the items_per_s trajectory recorded in the BENCH_<pr>.json files.

Each BENCH_<pr>.json at the repository root records parent and change runs
of the benchmark for one change.  For each file, in PR order, and each
workload in it, this prints the change median of `items_per_s` and its
`change_over_parent`; then, for each workload, the ratio of its change
median in the last file that holds it to that in the first, and to the
best (highest) change median of any file: the cumulative slide from its
best, which small steps, each inside its bound, can add up to.  Only `median`
and `change_over_parent` are read, because the oldest records carry no
quartiles.  The output is informational and checks nothing:

    python3 scripts/bench_trajectory.py
"""

import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
METRIC = "items_per_s"


def trajectory(directory: Path) -> list[tuple[int, str, float, float]]:
    """(pr, workload, change median, change_over_parent) of METRIC for every
    workload of every BENCH_<pr>.json in directory, in PR order."""
    files = []
    for path in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            files.append((int(match.group(1)), path))
    rows = []
    for pr, path in sorted(files):
        for workload, record in json.loads(path.read_text())["workloads"].items():
            summary = record["summary"][METRIC]
            rows.append((pr, workload, summary["change"]["median"], summary["change_over_parent"]))
    return rows


def main(directory: Path = REPO) -> int:
    rows = trajectory(directory)
    print(f"{'file':<14}{'workload':<22}{METRIC:>12}{'change_over_parent':>20}")
    for pr, workload, median, ratio in rows:
        print(f"{f'BENCH_{pr}':<14}{workload:<22}{median:>12.2f}{ratio:>20.3f}")
    first, last, best = {}, {}, {}
    for pr, workload, median, _ in rows:
        first.setdefault(workload, (pr, median))
        last[workload] = (pr, median)
        if workload not in best or median > best[workload][1]:
            best[workload] = (pr, median)
    print()
    for workload, (pr0, m0) in first.items():
        pr1, m1 = last[workload]
        prb, mb = best[workload]
        print(
            f"{workload}: BENCH_{pr0} {m0:.2f} -> BENCH_{pr1} {m1:.2f}, ratio {m1 / m0:.3f}; "
            f"best BENCH_{prb} {mb:.2f}, latest/best {m1 / mb:.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
