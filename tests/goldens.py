"""The frozen goldens under tests/golden/: one table of inputs and the files
each freezes, and produce(), which writes a golden's files through the cli.

tests/test_cli.py compares the files byte for byte, in process and in child
processes under other BLAS kernels and SIMD settings, and
scripts/regen_goldens.py rewrites them.  Both read GOLDENS and call produce,
so a golden is added with one row of the table and its config.
"""

import contextlib
import io
from pathlib import Path

from duality_lab import cli

REPO = Path(__file__).resolve().parents[1]
ROOT = REPO / "tests" / "golden"
SCENARIO = (cli.PATTERN_CSV, cli.REPORT_JSON, cli.CONVERGENCE_JSON)

# name: (input config, files frozen in ROOT/<name>/); a config sits beside
# its files unless it is a bundled scenario
GOLDENS = {
    # a real coherence matrix
    "three_slit": (REPO / "scenarios" / "three_slit.json", SCENARIO),
    # mode rows with Jones states, slit phases
    "modes_polarized": (ROOT / "modes_polarized" / "config.json", SCENARIO),
    # random rank-5 coherence, slit phases
    "random_phases": (ROOT / "random_phases" / "config.json", SCENARIO),
    # a sweep of random full-rank instances
    "random_sweep": (ROOT / "random_sweep" / "config.json", (cli.SWEEP_CSV,)),
    # exact phase model, gaussian envelope, scale_w, random rank 3 of 6 with
    # slit phases; mc-validate's ensemble and analyze of its own pattern.csv
    "exact_gaussian": (ROOT / "exact_gaussian" / "config.json", SCENARIO + (cli.MC_PATTERN_CSV, cli.ANALYSIS_JSON)),
    # 16 slits, 4 real mode rows (one -0.0 imaginary entry), equal nonzero
    # slit phases, gaussian envelope: A is real, so the real paths are taken
    "real_modes": (ROOT / "real_modes" / "config.json", SCENARIO),
}


def produce(name, out) -> int:
    """Write golden `name`'s files into `out`: run_sweep for sweep.csv,
    run_scenario for the scenario files, then mc-validate and analyze through
    cli.main, their stdout dropped, only when their files are listed.
    Returns the runner's exit status; cli.main refuses with SystemExit(1)."""
    config, files = GOLDENS[name]
    if cli.SWEEP_CSV in files:
        return cli.run_sweep(config, out)
    status = cli.run_scenario(config, out)
    args = ["--config", str(config), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.MC_PATTERN_CSV in files:
            cli.main(["mc-validate", *args])
        if cli.ANALYSIS_JSON in files:
            cli.main(["analyze", "--csv", str(Path(out) / cli.PATTERN_CSV), *args])
    return status


def differing(name, out) -> list[str]:
    """The files of golden `name` whose bytes in `out` differ from the frozen copy."""
    return [f for f in GOLDENS[name][1] if (Path(out) / f).read_bytes() != (ROOT / name / f).read_bytes()]
