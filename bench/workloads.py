"""The benchmark's workloads.

Every workload is a closed loop with one caller: the next item starts when
the previous one returns.  Inputs come only from the workload seed.  `run`
is the timed part of an item and looks every program function up through
its module at call time, so the tracer's wrappers see the calls; `check`
runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

import checks
from duality_lab import analysis, cli, coherence, engine, measures


def accuracy_metrics() -> dict[str, float]:
    """Accuracy observations every workload reports, 0 where it has none.
    Each is the worst value seen over the run's checked items."""
    return dict.fromkeys((
        "golden.pattern_csv.mismatch_rows",
        "oracle.convergence_ratio",
        "analysis.extract_vc.max_abs_dev",
        "engine.pattern.small_angle.max_rel_dev",
        "engine.pattern.exact.max_rel_dev",
    ), 0.0)


def _item_rng(seed: int, stream: int, k: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream, k))


def _invoke(args) -> int:
    """Run a CLI subcommand in-process and return its exit status."""
    try:
        rv = cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code
    return 0 if rv is None else rv


class ThreeSlitScenario:
    """`run_scenario` on the bundled three-slit scenario into a fresh
    directory, then the `analyze` and `mc-validate` subcommands in-process.
    The item seed goes in through the program's own seed override."""

    name = "three_slit_scenario"
    block = 1

    def __init__(self, root: Path, work: Path, seed: int):
        self.config = str(root / "scenarios" / "three_slit.json")
        self.golden = root / "tests" / "golden" / "three_slit"
        self.work = work
        self.seed = seed
        self.observed = accuracy_metrics()

    def make_item(self, k: int, stream: int = 0):
        seed = int(_item_rng(self.seed, stream, k).integers(0, 2**32))
        return k, seed, self.work / f"item-{stream}-{k}"

    def run(self, item):
        _, seed, out = item
        csv = str(out / "pattern.csv")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = (
                cli.run_scenario(self.config, out, seed=seed),
                _invoke(["analyze", "--config", self.config, "--csv", csv, "--out", str(out),
                         "--seed", str(seed)]),
                _invoke(["mc-validate", "--config", self.config, "--out", str(out),
                         "--seed", str(seed)]),
            )
        return codes

    def check(self, item, codes) -> list[str]:
        _, _, out = item
        problems = checks.check_three_slit(out, self.golden, codes)
        if not problems:
            obs = self.observed
            rows = checks.mismatch_rows(out / "pattern.csv", self.golden / "pattern.csv")
            conv = json.loads((out / "convergence.json").read_text())
            ratio = conv["max_rel_dev"] / checks.convergence_bound(conv["N"])
            result = json.loads((out / "analysis.json").read_text())
            dev = abs(result["v_c_operational"] - result["v_c_analytic"])
            obs["golden.pattern_csv.mismatch_rows"] = max(obs["golden.pattern_csv.mismatch_rows"], rows)
            obs["oracle.convergence_ratio"] = max(obs["oracle.convergence_ratio"], ratio)
            obs["analysis.extract_vc.max_abs_dev"] = max(obs["analysis.extract_vc.max_abs_dev"], dev)
        shutil.rmtree(out, ignore_errors=True)
        return problems


# wide_grating: one block holds every (n, envelope, phase-model slot)
# combination once, so each block is the fixed mix: n in equal thirds,
# envelopes in halves, the exact phase model for one item in four.
WIDE_NS = (16, 64, 128)
WIDE_ENVELOPES = ("uniform", "gaussian")
WIDE_PHASE_SLOTS = ("exact", "small_angle", "small_angle", "small_angle")
WIDE_COMBOS = [
    (n, env, phase) for n in WIDE_NS for env in WIDE_ENVELOPES for phase in WIDE_PHASE_SLOTS
]
WIDE_RANK = 4
WIDE_SAMPLES = 4096
WIDE_PROBE_POINTS = 3
# The three-slit scenario's optics; the window spans +-4 fringe widths, so
# the grid has 512 samples per fringe.
WAVELENGTH = 500e-9
DISTANCE = 1.0
SPACING = 50e-6
SIGMA_FRINGES = 4.0


class WideGrating:
    """Analytic pattern and measures of one many-slit instance, no oracle
    and no file I/O.  The seed varies only intensities, modes and order."""

    name = "wide_grating"
    block = len(WIDE_COMBOS)

    def __init__(self, root: Path, work: Path, seed: int):
        self.seed = seed
        self.observed = accuracy_metrics()

    def make_item(self, k: int, stream: int = 0):
        block, slot = divmod(k, self.block)
        order = _item_rng(self.seed, stream + 1, block).permutation(self.block)
        n, envelope, phase_model = WIDE_COMBOS[order[slot]]
        rng = _item_rng(self.seed, stream, k)
        intensities = rng.uniform(0.1, 1.0, n)
        modes = rng.uniform(0.0, 1.0, (n, WIDE_RANK))
        probes = rng.choice(WIDE_SAMPLES, WIDE_PROBE_POINTS, replace=False)
        return n, envelope, phase_model, intensities, modes, probes

    def run(self, item):
        _, envelope, phase_model, intensities, modes, _ = item
        coh = coherence.from_modes(coherence.ModeDecomposition(modes))
        slits = engine.SlitArray(intensities=intensities, spacing=SPACING)
        width = WAVELENGTH * DISTANCE / SPACING
        geometry = engine.ScreenGeometry.over_fringes(
            slits, WAVELENGTH, DISTANCE, samples=WIDE_SAMPLES, envelope=envelope,
            sigma=SIGMA_FRINGES * width if envelope == "gaussian" else None,
            phase_model=phase_model,
        )
        pat = engine.pattern(slits, coh, geometry)
        v_c = analysis.extract_vc(pat)
        report = measures.duality_report(slits.intensities, coh)
        return slits, coh, geometry, pat, v_c, report

    def check(self, item, result) -> list[str]:
        slits, coh, geometry, pat, v_c, report = result
        problems, dev = checks.check_wide_grating(pat, slits, coh, geometry, item[5])
        obs = self.observed
        key = f"engine.pattern.{geometry.phase_model}.max_rel_dev"
        obs[key] = max(obs[key], dev)
        # Operational V_C matches the analytic one only when all pair phases
        # peak together, which the exact model's path curvature breaks.
        if geometry.phase_model == "small_angle":
            dev_vc = abs(v_c - report.v_c)
            obs["analysis.extract_vc.max_abs_dev"] = max(obs["analysis.extract_vc.max_abs_dev"], dev_vc)
        return problems


SWEEP_N_MIN = 2
SWEEP_N_MAX = 8
SWEEP_SEEDS_PER_N = 15
SWEEP_RANK_POLICIES = ("full", "rank1", "2")


class SweepBatch:
    """One `run_sweep` call on a benchmark-generated sweep config; the rank
    policy cycles by item and the master seed comes from the workload seed."""

    name = "sweep_batch"
    block = 1

    def __init__(self, root: Path, work: Path, seed: int):
        self.seed = seed
        self.out = work / "sweep"
        self.configs = []
        work.mkdir(parents=True, exist_ok=True)
        for policy in SWEEP_RANK_POLICIES:
            path = work / f"sweep-{policy}.json"
            spec = {"n_min": SWEEP_N_MIN, "n_max": SWEEP_N_MAX, "seeds": SWEEP_SEEDS_PER_N,
                    "rank_policy": policy, "seed": 0}
            path.write_text(json.dumps({"schema": 1, "sweep": spec}))
            self.configs.append(str(path))
        self.instances = (SWEEP_N_MAX - SWEEP_N_MIN + 1) * SWEEP_SEEDS_PER_N
        self.observed = accuracy_metrics()

    def make_item(self, k: int, stream: int = 0):
        master = int(_item_rng(self.seed, stream, k).integers(0, 2**63))
        return self.configs[k % len(self.configs)], master

    def run(self, item):
        config, master = item
        return cli.run_sweep(config, self.out, seed=master)

    def check(self, item, code) -> list[str]:
        csv = self.out / "sweep.csv"
        try:
            text = csv.read_text()
        except OSError as exc:
            return [f"unreadable sweep.csv: {exc!r}"]
        csv.unlink()  # a later item that writes nothing must not pass on this file
        return checks.check_sweep(text, self.instances, code)


WORKLOADS = {wl.name: wl for wl in (ThreeSlitScenario, WideGrating, SweepBatch)}
