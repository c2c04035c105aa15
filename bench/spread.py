"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 bench/spread.py --workload wide_grating --seeds 1-10 [--trace 0|1]
                            [--seconds S] [--json summary.json]

Runs `bench/run.py` once per seed, one run at a time, and prints for every
metric the median, the first and third quartiles and their distance as a
share of the median (`statistics.quantiles(values, n=4)`), next to the
metric's bound from BENCHMARK.json.  `--json` also writes every run's
values and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} items failed",
                  file=sys.stderr)
        runs.append({"seed": seed, **result})
        print(f"seed {seed} done", file=sys.stderr)

    names = list(runs[0]["metrics"])
    summary = {}
    print(f"{args.workload} trace {args.trace}, {len(runs)} runs of {seconds} s")
    print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs]
        stats = summarize(values)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], **stats}
        bound = bounds.get(name)
        flag = " *" if bound is not None and name != "setup_s" and stats["spread"] > bound / 3 else ""
        print(f"  {name:44s} {stats['median']:12.6g} {stats['q1']:12.6g} {stats['q3']:12.6g} "
              f"{stats['spread']:8.4f} {bound if bound is not None else '':>6}{flag}")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seconds": seconds,
             "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
