"""Batch front end: scenario runs, ensemble sweeps and offline analysis.

Each command computes all it writes before _write creates `--out` and
writes every file, so a run refused with exit 1 writes no file; a run that
ends in exit 2 writes them all.

_exit_status turns the outcome of every command, and of run_scenario and
run_sweep, into the exit code: 0 success, 1 input, usage or write error, 2 a
duality inequality was violated beyond tolerance (the relations are theorems
for valid inputs, so a violation signals an implementation fault, not bad
user data).  It is the one judge of the relations: each command body returns
the relations' left-hand sides it answers for, or nothing, and no other code
turns a left-hand side into a verdict on the run.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from duality_lab import analysis, coherence, engine, measures, oracle
# bench/tracing.py wraps cli.random_coherence, so the name stays importable
from duality_lab.coherence import degree_of_coherence, random_coherence  # noqa: F401
from duality_lab.scenario import (
    _STACK_ENTRIES,
    _read_json,
    load_matrix,
    load_scenario,
    load_sweep,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2

# what bad input (ScenarioError included) or a failed write raises: exit 1
_INPUT_ERRORS = (ValueError, OSError)

# the output file names, each written inside --out
PATTERN_CSV = "pattern.csv"
REPORT_JSON = "report.json"
MC_PATTERN_CSV = "mc_pattern.csv"
CONVERGENCE_JSON = "convergence.json"
ANALYSIS_JSON = "analysis.json"
SWEEP_CSV = "sweep.csv"


def _exit_status(body, *args, **kwargs) -> int:
    """Run body(*args, **kwargs) and turn its outcome into the exit status:
    a click usage error, click.Abort, bad input or a failed write prints one
    `error: <message>` line and gives EXIT_INPUT; returned left-hand sides of
    which one is not within INEQUALITY_TOL of 1, NaN included, print the
    violation line and give EXIT_VIOLATION; anything else gives EXIT_OK."""
    try:
        lhs = body(*args, **kwargs) or ()
    except click.ClickException as exc:
        message = exc.format_message()
    except click.Abort:
        message = "aborted"
    except _INPUT_ERRORS as exc:
        message = exc
    else:
        if all(map(measures._holds, lhs)):
            return EXIT_OK
        click.echo("error: duality inequality violated beyond tolerance", err=True)
        return EXIT_VIOLATION
    click.echo(f"error: {message}", err=True)
    return EXIT_INPUT


def _write(out, files) -> None:
    """Create the directory `out` with its parents if missing and write each
    of the already computed files into it by name: a pattern through
    engine.write_pattern_csv, text as it is, and a list of lines (the sweep's
    rows) line by line through one text stream, so the file's text is never
    joined or encoded whole."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if isinstance(content, engine.InterferencePattern):
            engine.write_pattern_csv(content, out / name)
            continue
        with open(out / name, "w", newline="") as f:
            f.writelines([content] if isinstance(content, str) else content)


def _run(sc, out, names):
    """Compute the named output files of scenario sc, each pattern once and in
    fringe widths if sc.scale_w, then write them into `out`.  Returns the
    files by name, JSON as text, and the left-hand sides of report.json's
    two relations if it is named, else none."""
    def in_unit(pat):
        return pat.in_fringe_widths() if sc.scale_w else pat

    ensemble = MC_PATTERN_CSV in names or CONVERGENCE_JSON in names
    if ensemble and not sc.oracle_enabled:
        raise ValueError("oracle: not enabled in config")
    files, lhs = {}, []
    if PATTERN_CSV in names or ensemble:
        files[PATTERN_CSV] = in_unit(engine.pattern(sc.slits, sc.coherence, sc.geometry))
    if REPORT_JSON in names:
        report = measures.duality_report(sc.slits.intensities, sc.coherence)
        files[REPORT_JSON] = report.to_json()
        lhs = [report.pyth_lhs, report.lin_lhs]
    if ensemble:
        mc = files[MC_PATTERN_CSV] = in_unit(oracle.mc_pattern(
            sc.slits, sc.coherence, sc.geometry, sc.oracle_realizations, sc.oracle_seed
        ))
        conv = oracle.convergence_report(mc, files[PATTERN_CSV], sc.oracle_realizations)
        files[CONVERGENCE_JSON] = json.dumps(conv, indent=2) + "\n"
    _write(out, {name: files[name] for name in names})
    return files, lhs


def _scenario(config, out_dir, seed):
    """run_scenario's body: writes the files and returns the report's
    left-hand sides."""
    sc = load_scenario(config, seed_override=seed)
    names = (PATTERN_CSV, REPORT_JSON) + ((CONVERGENCE_JSON,) if sc.oracle_enabled else ())
    return _run(sc, out_dir, names)[1]


def run_scenario(config, out_dir, seed: int | None = None) -> int:
    """Execute a full scenario: pattern CSV + duality report JSON, plus the
    Monte-Carlo convergence JSON when the oracle is enabled.  All three are
    computed before any is written, so a refused run writes no file.

    Returns the process exit status (0 / 1 / 2) instead of raising on bad
    input, so callers can surface it directly.
    """
    return _exit_status(_scenario, config, out_dir, seed)


def _sweep(config, out_dir, seed):
    """The body of run_sweep and of the sweep command: writes sweep.csv and
    returns the left-hand sides of both relations for every instance."""
    sweep = load_sweep(config, seed_override=seed)
    cases, columns = [], measures._Columns(*([] for _ in measures._Columns._fields))
    for n in range(sweep.n_min, sweep.n_max + 1):
        # the shape, scale and mode streams, the children that
        # SeedSequence((seed, n)).spawn(3) would give
        shape, scale, modes = (
            np.random.default_rng(np.random.SeedSequence((sweep.seed, n), spawn_key=(k,)))
            for k in range(3)
        )
        stack = max(1, _STACK_ENTRIES // (n * n))
        for start in range(0, sweep.seeds, stack):
            seeds = range(start, min(start + stack, sweep.seeds))
            cases += [(n, s) for s in seeds]
            # each stream is drawn once per stack, and numpy fills an array in
            # order, so instance s is the (s+1)-th one-instance draw of each:
            # its intensities are shape.dirichlet(ones(n)) times
            # scale.uniform(0.1, 10.0), uniform on the intensity simplex and
            # rescaled to exercise scale invariance, and its mode rows those
            # of random_coherence(n, rank, modes)
            count = len(seeds)
            intensities = shape.dirichlet(np.ones(n), count) * scale.uniform(0.1, 10.0, count)[:, None]
            grams = coherence._random_grams(modes, n, sweep.rank or n, (count,))
            for column, values in zip(columns, measures._columns(intensities, grams)):
                column += values
    # the first largest left-hand side, a NaN counting as the largest, so
    # that the summary names the first instance that fails through one
    pyth_at = max(range(len(cases)), key=lambda i: (math.isnan(columns.pyth_lhs[i]), columns.pyth_lhs[i]))
    lin_at = max(range(len(cases)), key=lambda i: (math.isnan(columns.lin_lhs[i]), columns.lin_lhs[i]))
    rows = ["n,seed,v_c,d,d_prime,gamma_n,c,pyth_lhs,lin_lhs\n"]
    rows += [f"{n},{s},{','.join(map(repr, row))}\n" for (n, s), row in zip(cases, zip(*columns))]
    rows.append(
        f"summary,instances={len(cases)},max_pyth_lhs={columns.pyth_lhs[pyth_at]!r},"
        f"max_lin_lhs={columns.lin_lhs[lin_at]!r},"
        f"max_pyth_at={cases[pyth_at][0]}:{cases[pyth_at][1]},"
        f"max_lin_at={cases[lin_at][0]}:{cases[lin_at][1]},,,\n"
    )
    _write(out_dir, {SWEEP_CSV: rows})
    return columns.pyth_lhs + columns.lin_lhs


def run_sweep(config, out_dir, seed: int | None = None) -> int:
    """Run the random-instance sweep described by a sweep config and write
    one CSV row per instance plus a trailing summary row, which also names
    the first instance of largest left-hand side of each relation, a NaN
    counting as the largest.  Each slit count n draws its seeds in order
    from its own three streams, built directly as SeedSequence((master, n),
    spawn_key=(k,)) for k = 0, 1, 2, the children that
    SeedSequence((master, n)).spawn(3) gives, in stacks of at most
    _STACK_ENTRIES matrix entries; where the stacks are cut moves no row,
    and a larger `seeds` keeps the rows of a smaller one.  Returns
    the exit status as run_scenario does: 2 when any instance has a
    left-hand side, NaN included, that is not within INEQUALITY_TOL of 1."""
    return _exit_status(_sweep, config, out_dir, seed)


_config_opt = click.option(
    "--config", required=True, type=click.Path(exists=True, dir_okay=False),
    help="Scenario config (JSON, schema 1).",
)
_out_opt = click.option(
    "--out", default=".", type=click.Path(file_okay=False), help="Output directory."
)
_seed_opt = click.option(
    "--seed", default=None, type=click.IntRange(0, 2**64 - 1),
    help="Override every seed in the config.",
)


class _Main(click.Group):
    """Runs click outside its standalone mode, which would exit 2 on a usage
    error and end even a successful command with SystemExit(0), and leaves
    the exit status to _exit_status: a nonzero one ends in SystemExit, and a
    command that succeeds returns None."""

    def main(self, *args, **kwargs):
        kwargs["standalone_mode"] = False
        status = _exit_status(super().main, *args, **kwargs)
        if status:
            sys.exit(status)


@click.group(cls=_Main, no_args_is_help=False)
def main():
    """Multislit interference lab: patterns, duality measures, MC validation."""


@main.command("pattern")
@_config_opt
@_out_opt
@_seed_opt
def pattern_cmd(config, out, seed):
    """Compute the analytic pattern and write pattern CSV."""
    _run(load_scenario(config, seed_override=seed), out, (PATTERN_CSV,))
    click.echo(f"wrote {Path(out) / PATTERN_CSV}")


@main.command("measures")
@_config_opt
@_out_opt
@_seed_opt
def measures_cmd(config, out, seed):
    """Compute the duality report and write report JSON."""
    files, lhs = _run(load_scenario(config, seed_override=seed), out, (REPORT_JSON,))
    click.echo(files[REPORT_JSON], nl=False)
    return lhs


@main.command("analyze")
@_config_opt
@click.option(
    "--csv", "csv_path", required=True, type=click.Path(exists=True, dir_okay=False),
    help="Pattern CSV to re-import.",
)
@_out_opt
@_seed_opt
def analyze_cmd(config, csv_path, out, seed):
    """Extract operational visibilities from a pattern CSV, x in its header's unit.

    Reports both the operational and the analytic corrected visibility and
    flags disagreement when the pair phases are not aligned."""
    sc = load_scenario(config, seed_override=seed)
    pat = analysis.load_pattern_csv(csv_path, sc.slits.n, engine.fringe_width(sc.geometry, sc.slits))
    peak = analysis.find_primary_max(pat)
    v_c_op = analysis.extract_vc(pat)
    michelson = analysis.extract_michelson(pat)
    v_c_an = measures.visibility_analytic(sc.slits.intensities, sc.coherence)
    text = json.dumps({
        "x_star": peak.x_star,
        "i_max": peak.i_max,
        "v_c_operational": v_c_op,
        "v_c_analytic": v_c_an,
        "michelson": michelson,
        "phases_aligned": analysis.aligned_phases(sc.slits, sc.coherence),
        "operational_matches_analytic": abs(v_c_op - v_c_an) <= analysis.VC_MATCH_TOL,
    }, indent=2) + "\n"
    _write(out, {ANALYSIS_JSON: text})
    click.echo(text, nl=False)


@main.command("mc-validate")
@_config_opt
@_out_opt
@_seed_opt
def mc_validate_cmd(config, out, seed):
    """Run the Monte-Carlo oracle and write its pattern CSV plus the
    convergence report JSON."""
    sc = load_scenario(config, seed_override=seed)
    files, _ = _run(sc, out, (MC_PATTERN_CSV, CONVERGENCE_JSON))
    click.echo(files[CONVERGENCE_JSON], nl=False)


@main.command("sweep")
@_config_opt
@_out_opt
@_seed_opt
def sweep_cmd(config, out, seed):
    """Random-ensemble sweep of the duality relations; writes sweep.csv."""
    return _sweep(config, out, seed)


@main.command("gamma-n")
@_config_opt
def gamma_n_cmd(config):
    """Print the n-point degree of coherence of a matrix or scenario config."""
    obj = _read_json(config)
    if isinstance(obj, dict) and "re" in obj and "im" in obj:
        coh = load_matrix(config)
    else:
        coh = load_scenario(config).coherence
    click.echo(repr(degree_of_coherence(coh)))


if __name__ == "__main__":
    main()
