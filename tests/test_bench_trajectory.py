import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_trajectory.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(**workloads):
    # only median and change_over_parent, as in the oldest records
    return {
        "workloads": {
            name: {"summary": {"items_per_s": {"change": {"median": median}, "change_over_parent": ratio}}}
            for name, (median, ratio) in workloads.items()
        }
    }


def test_prints_each_file_in_pr_order_and_first_to_last_ratios(tmp_path, capsys):
    # BENCH_10 sorts before BENCH_9 as text, after it as a PR number
    (tmp_path / "BENCH_9.json").write_text(json.dumps(record(a=(40.0, 1.5), b=(100.0, 0.98))))
    (tmp_path / "BENCH_10.json").write_text(json.dumps(record(a=(50.0, 1.25))))
    (tmp_path / "BENCH_notes.json").write_text("not a record")
    assert load_script().main(tmp_path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[1:4]] == [
        ["BENCH_9", "a", "40.00", "1.500"],
        ["BENCH_9", "b", "100.00", "0.980"],
        ["BENCH_10", "a", "50.00", "1.250"],
    ]
    assert lines[5:] == [
        "a: BENCH_9 40.00 -> BENCH_10 50.00, ratio 1.250",
        "b: BENCH_9 100.00 -> BENCH_9 100.00, ratio 1.000",
    ]
