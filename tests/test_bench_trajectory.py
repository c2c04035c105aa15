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
        "a: BENCH_9 40.00 -> BENCH_10 50.00, ratio 1.250; best BENCH_10 50.00, latest/best 1.000",
        "b: BENCH_9 100.00 -> BENCH_9 100.00, ratio 1.000; best BENCH_9 100.00, latest/best 1.000",
    ]


def test_latest_over_best_shows_the_slide_from_the_best_file(tmp_path, capsys):
    # a rise to BENCH_3, then two small falls: 90 / 120 = 0.75 of the best,
    # though the last step alone is 0.9 and the first-to-last ratio 1.125;
    # the tie in BENCH_4 keeps the earlier best
    for pr, median in ((2, 80.0), (3, 120.0), (4, 120.0), (5, 100.0), (6, 90.0)):
        (tmp_path / f"BENCH_{pr}.json").write_text(json.dumps(record(w=(median, 1.0))))
    assert load_script().main(tmp_path) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "w: BENCH_2 80.00 -> BENCH_6 90.00, ratio 1.125; best BENCH_3 120.00, latest/best 0.750"
    )


def test_reads_every_record_of_the_repository(capsys):
    # the repository's own BENCH_<pr>.json files, each as its workloads in
    # file order: one row per workload per file with a positive median and
    # ratio, so a malformed record fails here
    module = load_script()
    assert module.main(module.REPO) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1 : lines.index("")]]
    paths = sorted(module.REPO.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    assert len(paths) >= 20
    expected = [[path.stem, workload] for path in paths for workload in json.loads(path.read_text())["workloads"]]
    assert [row[:2] for row in rows] == expected
    assert all(float(row[2]) > 0.0 and float(row[3]) > 0.0 for row in rows)
