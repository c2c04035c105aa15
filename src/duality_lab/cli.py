"""Batch front end: scenario runs, ensemble sweeps and offline analysis.

Exit codes: 0 success, 1 input, usage or write error, 2 a duality inequality
was violated beyond tolerance (the relations are theorems for valid inputs,
so a violation signals an implementation fault, not bad user data).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from duality_lab import analysis, engine, measures, oracle
from duality_lab.coherence import degree_of_coherence, random_coherence
from duality_lab.scenario import ScenarioError, _read_json, load_matrix, load_scenario, load_sweep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2

PATTERN_CSV = "pattern.csv"
REPORT_JSON = "report.json"
CONVERGENCE_JSON = "convergence.json"


def _fail(message) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT)


def _write_json(obj, path: Path) -> str:
    """Write obj as indented JSON with a final newline; returns the text."""
    text = json.dumps(obj, indent=2) + "\n"
    path.write_text(text)
    return text


def _verdict(reports) -> int:
    """EXIT_OK when both duality relations hold in every report; otherwise
    say so on stderr and return EXIT_VIOLATION."""
    if all(r.pyth_holds and r.lin_holds for r in reports):
        return EXIT_OK
    click.echo("error: duality inequality violated beyond tolerance", err=True)
    return EXIT_VIOLATION


def run_scenario(config, out_dir, seed: int | None = None) -> int:
    """Execute a full scenario: pattern CSV + duality report JSON, plus the
    Monte-Carlo convergence JSON when the oracle is enabled.

    Returns the process exit status (0 / 1 / 2) instead of raising on bad
    input, so callers can surface it directly.
    """
    out = Path(out_dir)
    try:
        sc = load_scenario(config, seed_override=seed)
        out.mkdir(parents=True, exist_ok=True)
        pat = engine.pattern(sc.slits, sc.coherence, sc.geometry)
        engine.write_pattern_csv(pat, out / PATTERN_CSV, scale_w=sc.scale_w)
        report = measures.duality_report(sc.slits.intensities, sc.coherence)
        (out / REPORT_JSON).write_text(report.to_json())
        if sc.oracle_enabled:
            _, conv = oracle.convergence_report(
                sc.slits, sc.coherence, sc.geometry, sc.oracle_realizations, sc.oracle_seed
            )
            _write_json(conv, out / CONVERGENCE_JSON)
    except (ScenarioError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT
    return _verdict([report])


def _sweep_instance(master_seed: int, n: int, seed: int, rank: int) -> measures.DualityReport:
    rng = np.random.default_rng((master_seed, n, seed))
    # uniform on the intensity simplex, rescaled to exercise scale invariance
    intensities = rng.dirichlet(np.ones(n)) * rng.uniform(0.1, 10.0)
    coh = random_coherence(n, rank, seed=int(rng.integers(0, 2**63)))
    return measures.duality_report(intensities, coh)


def run_sweep(config, out_dir, seed: int | None = None) -> int:
    """Run the random-instance sweep described by a sweep config and write
    one CSV row per instance plus a trailing summary row."""
    out = Path(out_dir)
    try:
        sweep = load_sweep(config, seed_override=seed)
        cases = [(n, s) for n in range(sweep.n_min, sweep.n_max + 1) for s in range(sweep.seeds)]
        reports = [_sweep_instance(sweep.seed, n, s, sweep.rank or n) for n, s in cases]
        out.mkdir(parents=True, exist_ok=True)
        max_pyth_lhs = max(r.pyth_lhs for r in reports)
        max_lin_lhs = max(r.lin_lhs for r in reports)
        max_pyth_res = max(r.pyth_residual for r in reports)
        max_lin_res = max(r.lin_residual for r in reports)
        with open(out / "sweep.csv", "w", newline="") as f:
            f.write("n,seed,v_c,d,d_prime,gamma_n,c,pyth_lhs,lin_lhs\n")
            for (n, s), r in zip(cases, reports):
                f.write(
                    f"{n},{s},{r.v_c!r},{r.d!r},{r.d_prime!r},{r.gamma_n!r},"
                    f"{r.c!r},{r.pyth_lhs!r},{r.lin_lhs!r}\n"
                )
            f.write(
                f"summary,instances={len(cases)},max_pyth_lhs={max_pyth_lhs!r},"
                f"max_lin_lhs={max_lin_lhs!r},max_pyth_residual={max_pyth_res!r},"
                f"max_lin_residual={max_lin_res!r},,,\n"
            )
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT
    return _verdict(reports)


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
    error and end even a successful command with SystemExit(0).  Usage
    errors, input errors and failed writes all end in one `error: <message>`
    line and exit 1, keeping exit 2 for a violated duality relation; a
    command that succeeds returns."""

    def main(self, *args, **kwargs):
        kwargs["standalone_mode"] = False
        try:
            return super().main(*args, **kwargs)
        except click.ClickException as exc:
            _fail(exc.format_message())
        except click.Abort:
            _fail("aborted")
        except (ScenarioError, OSError) as exc:
            _fail(exc)


@click.group(cls=_Main, no_args_is_help=False)
def main():
    """Multislit interference lab: patterns, duality measures, MC validation."""


@main.command("pattern")
@_config_opt
@_out_opt
@click.option("--scale-w", is_flag=True, help="Write x in fringe-width units.")
@_seed_opt
def pattern_cmd(config, out, scale_w, seed):
    """Compute the analytic pattern and write pattern CSV."""
    sc = load_scenario(config, seed_override=seed)
    pat = engine.pattern(sc.slits, sc.coherence, sc.geometry)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    engine.write_pattern_csv(pat, out_dir / PATTERN_CSV, scale_w=scale_w or sc.scale_w)
    click.echo(f"wrote {out_dir / PATTERN_CSV}")


@main.command("measures")
@_config_opt
@_out_opt
@_seed_opt
def measures_cmd(config, out, seed):
    """Compute the duality report and write report JSON."""
    sc = load_scenario(config, seed_override=seed)
    report = measures.duality_report(sc.slits.intensities, sc.coherence)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = report.to_json()
    (out_dir / REPORT_JSON).write_text(text)
    click.echo(text, nl=False)
    if _verdict([report]):
        sys.exit(EXIT_VIOLATION)


@main.command("analyze")
@_config_opt
@click.option(
    "--csv", "csv_path", required=True, type=click.Path(exists=True, dir_okay=False),
    help="Pattern CSV to re-import.",
)
@_out_opt
@click.option("--scale-w", is_flag=True, help="CSV positions are in fringe-width units.")
@_seed_opt
def analyze_cmd(config, csv_path, out, scale_w, seed):
    """Extract operational visibilities from a pattern CSV.

    Reports both the operational and the analytic corrected visibility and
    flags disagreement when the pair phases are not aligned."""
    sc = load_scenario(config, seed_override=seed)
    width = engine.fringe_width(sc.geometry, sc.slits)
    try:
        pat = analysis.load_pattern_csv(csv_path, sc.slits.n, width, scale_w=scale_w or sc.scale_w)
        peak = analysis.find_primary_max(pat)
        v_c_op = analysis.extract_vc(pat)
        michelson = analysis.extract_michelson(pat)
    except ValueError as exc:
        _fail(exc)
    v_c_an = measures.visibility_analytic(sc.slits.intensities, sc.coherence)
    aligned = analysis.aligned_phases(sc.slits, sc.coherence)
    result = {
        "x_star": peak.x_star,
        "i_max": peak.i_max,
        "v_c_operational": v_c_op,
        "v_c_analytic": v_c_an,
        "michelson": michelson,
        "phases_aligned": aligned,
        "operational_matches_analytic": abs(v_c_op - v_c_an) <= 1e-6,
    }
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    click.echo(_write_json(result, out_dir / "analysis.json"), nl=False)


@main.command("mc-validate")
@_config_opt
@_out_opt
@click.option("--scale-w", is_flag=True, help="Write x in fringe-width units.")
@_seed_opt
def mc_validate_cmd(config, out, scale_w, seed):
    """Run the Monte-Carlo oracle and write its pattern CSV plus the
    convergence report JSON."""
    sc = load_scenario(config, seed_override=seed)
    if not sc.oracle_enabled:
        _fail("oracle: not enabled in config")
    mc, conv = oracle.convergence_report(
        sc.slits, sc.coherence, sc.geometry, sc.oracle_realizations, sc.oracle_seed
    )
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    engine.write_pattern_csv(mc, out_dir / "mc_pattern.csv", scale_w=scale_w or sc.scale_w)
    click.echo(_write_json(conv, out_dir / CONVERGENCE_JSON), nl=False)


@main.command("sweep")
@_config_opt
@_out_opt
@_seed_opt
def sweep_cmd(config, out, seed):
    """Random-ensemble sweep of the duality relations; writes sweep.csv."""
    sys.exit(run_sweep(config, out, seed=seed))


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
