import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import duality_lab as dl
from duality_lab import measures
from duality_lab.cli import main, run_scenario, run_sweep

REPO = Path(__file__).resolve().parents[1]
THREE_SLIT = REPO / "scenarios" / "three_slit.json"
GOLDEN = REPO / "tests" / "golden" / "three_slit"

REPORT_KEYS = [
    "n", "v_c", "d", "d_prime", "gamma_n", "c",
    "pyth_lhs", "lin_lhs", "pyth_holds", "lin_holds",
]


@pytest.fixture
def runner():
    return CliRunner()


def write_scenario(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def saturated_two_slit(tmp_path):
    return write_scenario(
        tmp_path,
        {
            "schema": 1,
            "slits": {"n": 2, "d": 50e-6, "intensities": [1.0, 1.0]},
            "coherence": {
                "matrix": {"re": [[1.0, 1.0], [1.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
            },
            "geometry": {
                "wavelength": 500e-9,
                "distance": 1.0,
                "x_min": -0.04,
                "x_max": 0.04,
                "samples": 4096,
            },
        },
    )


def assert_input_error(result, fragment):
    # exit 1 through the program's own error path, not an uncaught exception
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output
    assert fragment in result.output


class TestMeasuresCommand:
    def test_saturated_scenario(self, runner, tmp_path):
        cfg = saturated_two_slit(tmp_path)
        result = runner.invoke(main, ["measures", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert list(report.keys()) == REPORT_KEYS
        assert report["v_c"] == pytest.approx(1.0, abs=1e-12)
        assert report["d"] == 0.0
        assert report["pyth_lhs"] == pytest.approx(1.0, abs=1e-12)

    def test_single_slit_exits_one(self, runner, tmp_path):
        cfg = write_scenario(
            tmp_path,
            {
                "schema": 1,
                "slits": {"n": 1, "d": 50e-6, "intensities": [1.0]},
                "coherence": {"matrix": {"re": [[1.0]], "im": [[0.0]]}},
                "geometry": {
                    "wavelength": 500e-9, "distance": 1.0,
                    "x_min": -0.04, "x_max": 0.04, "samples": 4096,
                },
            },
        )
        result = runner.invoke(main, ["measures", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "at least 2" in result.output


class TestPatternCommand:
    def test_writes_csv(self, runner, tmp_path):
        cfg = saturated_two_slit(tmp_path)
        result = runner.invoke(main, ["pattern", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "pattern.csv").read_text().splitlines()
        assert lines[0] == "x,total,incoherent"
        assert len(lines) == 4097

    def test_scale_w_flag(self, runner, tmp_path):
        cfg = saturated_two_slit(tmp_path)
        result = runner.invoke(
            main, ["pattern", "--config", str(cfg), "--out", str(tmp_path), "--scale-w"]
        )
        assert result.exit_code == 0
        first_x = float((tmp_path / "pattern.csv").read_text().splitlines()[1].split(",")[0])
        assert first_x == pytest.approx(-4.0)


class TestAnalyzeCommand:
    def test_round_trip(self, runner, tmp_path):
        cfg = saturated_two_slit(tmp_path)
        assert runner.invoke(
            main, ["pattern", "--config", str(cfg), "--out", str(tmp_path)]
        ).exit_code == 0
        result = runner.invoke(
            main,
            [
                "analyze", "--config", str(cfg),
                "--csv", str(tmp_path / "pattern.csv"), "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        analysis = json.loads((tmp_path / "analysis.json").read_text())
        assert analysis["phases_aligned"] is True
        assert analysis["operational_matches_analytic"] is True
        assert analysis["v_c_operational"] == pytest.approx(1.0, abs=1e-6)
        assert analysis["michelson"] == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("column", ["x", "total", "incoherent"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_rejects_non_finite_cell(self, runner, tmp_path, value, column):
        # inf in the central total cell once wrote "i_max": Infinity and nan
        # in the incoherent one "v_c_operational": NaN, both with exit 0
        lines = (GOLDEN / "pattern.csv").read_text().splitlines()
        row = len(lines) // 2
        cells = lines[row].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[row] = ",".join(cells)
        csv = tmp_path / "pattern.csv"
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["analyze", "--config", str(THREE_SLIT), "--csv", str(csv), "--out", str(out)]
        )
        assert_input_error(result, f"line {row + 1}, column {column}: non-finite value")
        assert result.output.count("error:") == 1
        assert not (out / "analysis.json").exists()


class TestMcValidateCommand:
    def test_writes_convergence(self, runner, tmp_path):
        cfg_obj = json.loads(THREE_SLIT.read_text())
        cfg_obj["oracle"]["realizations"] = 500
        cfg = write_scenario(tmp_path, cfg_obj)
        result = runner.invoke(main, ["mc-validate", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        conv = json.loads((tmp_path / "convergence.json").read_text())
        assert set(conv.keys()) == {"N", "max_rel_dev", "at_x"}
        assert conv["N"] == 500
        assert (tmp_path / "mc_pattern.csv").exists()

    def test_disabled_oracle_exits_one(self, runner, tmp_path):
        cfg = saturated_two_slit(tmp_path)
        result = runner.invoke(main, ["mc-validate", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "not enabled" in result.output


def _set_intensity(cfg, value):
    cfg["slits"]["intensities"][0] = value


def _set_coherence(cfg, value):
    cfg["coherence"]["matrix"]["re"][0][1] = value
    cfg["coherence"]["matrix"]["re"][1][0] = value


def _set_wavelength(cfg, value):
    cfg["geometry"]["wavelength"] = value


class TestNonFiniteInput:
    # 1e999 is valid JSON that overflows to inf, so the domain checks see it
    SENTINEL = 12345.678

    def scenario_text(self, setter, token):
        cfg = json.loads(THREE_SLIT.read_text())
        setter(cfg, self.SENTINEL)
        return json.dumps(cfg).replace(repr(self.SENTINEL), token)

    @pytest.mark.parametrize("setter", [_set_intensity, _set_coherence, _set_wavelength])
    @pytest.mark.parametrize(
        "token, fragment",
        [("NaN", "NaN is not a JSON number"), ("Infinity", "Infinity is not a JSON number"),
         ("-Infinity", "-Infinity is not a JSON number"), ("1e999", "finite")],
    )
    def test_scenario_exits_one(self, runner, tmp_path, setter, token, fragment):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(self.scenario_text(setter, token))
        result = runner.invoke(main, ["measures", "--config", str(cfg), "--out", str(tmp_path)])
        assert_input_error(result, fragment)

    @pytest.mark.parametrize("token, fragment", [("NaN", "NaN"), ("1e999", "not finite")])
    def test_gamma_n_matrix_exits_one(self, runner, tmp_path, token, fragment):
        path = tmp_path / "matrix.json"
        text = dl.validate(np.eye(2)).to_json().replace("0.0", token, 1)
        path.write_text(text)
        result = runner.invoke(main, ["gamma-n", "--config", str(path)])
        assert_input_error(result, fragment)

    def test_bool_rank_exits_one(self, runner, tmp_path):
        cfg_obj = json.loads(THREE_SLIT.read_text())
        cfg_obj["coherence"] = {"random": {"rank": True, "seed": 1}}
        cfg = write_scenario(tmp_path, cfg_obj)
        result = runner.invoke(main, ["measures", "--config", str(cfg), "--out", str(tmp_path)])
        assert_input_error(result, "coherence.random.rank: wrong type bool")


def _set_path(cfg, path, value):
    *parents, key = path.split(".")
    for name in parents:
        cfg = cfg.setdefault(name, {})
    cfg[key] = value


class TestConfigTypes:
    @pytest.mark.parametrize(
        "path, value, fragment",
        [
            ("slits.phases", 0.5, "slits.phases: wrong type float"),
            ("oracle", [], "top level.oracle: wrong type list"),
            ("oracle.enabled", "false", "oracle.enabled: wrong type str"),
            ("oracle.realizations", "many", "oracle.realizations: wrong type str"),
            ("oracle.realizations", 500.5, "oracle.realizations: wrong type float"),
            ("oracle.seed", True, "oracle.seed: wrong type bool"),
            ("oracle.seed", -1, "oracle.seed: need a nonnegative integer"),
            ("outputs", "none", "top level.outputs: wrong type str"),
            ("outputs.scale_w", "no", "outputs.scale_w: wrong type str"),
            ("outputs.scale_w", 0, "outputs.scale_w: wrong type int"),
            ("geometry.envelope", 5, "geometry.envelope: wrong type int"),
            ("geometry.phase_model", None, "geometry.phase_model: wrong type NoneType"),
            ("geometry.sigma", "wide", "geometry.sigma: wrong type str"),
            # these four once ran on converted values or died with a traceback
            ("slits.intensities", [True, 0.7, "0.4"], "slits.intensities[0]: wrong type bool"),
            ("slits.intensities", [{}, 0.7, 0.4], "slits.intensities[0]: wrong type dict"),
            ("slits.intensities", [1e308] * 3, "slits: sum of slit intensities must be positive"),
            pytest.param("slits.d", 10**400, "integer 100000000000... is too large for a float",
                         id="slits.d-401-digit-integer"),
            # a finite sum whose pattern peak, up to n x sum, overflows
            ("slits.intensities", [8e307, 8e307, 0.0], "slits: sum of slit intensities must be"),
            ("coherence", {"random": {"rank": 4, "seed": 1}}, "coherence.random.rank: 4 is above"),
            # above oracle.MAX_REALIZATIONS: refused at load time, never drawn
            ("oracle.realizations", 10**12, "oracle.realizations: need at most 16777216"),
        ],
    )
    def test_wrong_type_exits_one(self, runner, tmp_path, path, value, fragment):
        cfg_obj = json.loads(THREE_SLIT.read_text())
        _set_path(cfg_obj, path, value)
        cfg = write_scenario(tmp_path, cfg_obj)
        result = runner.invoke(main, ["pattern", "--config", str(cfg), "--out", str(tmp_path)])
        assert_input_error(result, fragment)
        assert not (tmp_path / "pattern.csv").exists()

    def test_gamma_n_matrix_without_n_exits_one(self, runner, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}))
        result = runner.invoke(main, ["gamma-n", "--config", str(path)])
        assert_input_error(result, "n: missing required key")

    @pytest.mark.parametrize(
        "change, fragment",
        [
            ({"re": "abc"}, "top level.re: wrong type str"),
            ({"n": "2"}, "top level.n: wrong type str"),
            ({"n": True}, "top level.n: wrong type bool"),
            ({"re": [[1.0, "0.5"], ["0.5", 1.0]]}, "top level.re[0][1]: wrong type str"),
        ],
        ids=["string-re", "string-n", "bool-n", "string-entry"],
    )
    def test_gamma_n_matrix_wrong_type_exits_one(self, runner, tmp_path, change, fragment):
        # each of these once died with a traceback or printed a gamma_n
        path = tmp_path / "matrix.json"
        matrix = {"n": 2, "re": [[1.0, 0.5], [0.5, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        path.write_text(json.dumps({**matrix, **change}))
        assert_input_error(runner.invoke(main, ["gamma-n", "--config", str(path)]), fragment)

    def test_booleans_accepted_where_expected(self, tmp_path):
        cfg_obj = json.loads(THREE_SLIT.read_text())
        cfg_obj["outputs"]["scale_w"] = True
        cfg_obj["oracle"]["enabled"] = False
        sc = dl.load_scenario(write_scenario(tmp_path, cfg_obj))
        assert sc.scale_w is True and sc.oracle_enabled is False


class TestOutputNames:
    def test_old_output_keys_do_not_move_files(self, tmp_path):
        cfg_obj = json.loads(THREE_SLIT.read_text())
        cfg_obj["oracle"]["realizations"] = 500
        cfg_obj["outputs"].update(
            pattern_csv="../x.csv", report_json="../r.json", convergence_json="../c.json"
        )
        cfg = write_scenario(tmp_path, cfg_obj)
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "convergence.json", "pattern.csv", "report.json",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.json"]


class TestUsageAndWriteErrors:
    @pytest.mark.parametrize("command", ["pattern", "measures", "analyze", "mc-validate", "sweep"])
    def test_out_below_a_file_exits_one(self, runner, tmp_path, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        config = THREE_SLIT
        if command == "sweep":
            config = write_scenario(tmp_path, {"schema": 1, "sweep": {"seeds": 1}})
        extra = ["--csv", str(GOLDEN / "pattern.csv")] if command == "analyze" else []
        args = [command, "--config", str(config), *extra, "--out", str(blocker / "sub")]
        result = runner.invoke(main, args)
        assert_input_error(result, "error: ")
        assert "Not a directory" in result.output

    def test_run_scenario_out_below_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_scenario(THREE_SLIT, blocker / "sub") == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, fragment",
        [
            (["measures"], "Missing option '--config'"),
            (["measures", "--config", "missing.json"], "does not exist"),
            (["measures", "--config", str(THREE_SLIT), "--out", str(THREE_SLIT)], "is a file"),
            ([], "Missing command"),
            (["frobnicate"], "No such command 'frobnicate'"),
        ],
    )
    def test_usage_error_exits_one(self, runner, args, fragment):
        result = runner.invoke(main, args)
        assert_input_error(result, fragment)
        assert result.output.startswith("error: ")

    def test_help_exits_zero(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        assert "Usage:" in result.output

    def test_success_returns_normally(self, tmp_path):
        # no exception, SystemExit(0) included, leaves a command that worked
        cfg = saturated_two_slit(tmp_path)
        assert main(["measures", "--config", str(cfg), "--out", str(tmp_path)]) is None


class TestGammaNCommand:
    def test_matrix_file(self, runner, tmp_path):
        coh = dl.random_coherence(3, 2, seed=1)
        path = tmp_path / "matrix.json"
        path.write_text(coh.to_json())
        result = runner.invoke(main, ["gamma-n", "--config", str(path)])
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(dl.degree_of_coherence(coh), abs=1e-15)

    def test_scenario_file(self, runner):
        result = runner.invoke(main, ["gamma-n", "--config", str(THREE_SLIT)])
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(3.7 / 6.0, abs=1e-12)


class TestSweepCommand:
    def sweep_config(self, tmp_path, **kw):
        spec = {"n_min": 2, "n_max": 4, "seeds": 20, "rank_policy": "full", "seed": 5}
        spec.update(kw)
        return write_scenario(tmp_path, {"schema": 1, "sweep": spec}, name="sweep.json")

    def test_rows_and_summary(self, runner, tmp_path):
        cfg = self.sweep_config(tmp_path)
        result = runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n,seed,v_c,d,d_prime,gamma_n,c,pyth_lhs,lin_lhs"
        assert len(lines) == 1 + 3 * 20 + 1
        summary = lines[-1].split(",")
        assert len(summary) == 9
        assert summary[0] == "summary" and summary[1] == "instances=60"
        assert [f.split("=")[0] for f in summary[1:4]] == ["instances", "max_pyth_lhs", "max_lin_lhs"]
        assert summary[4:] == [""] * 5
        for line in lines[1:-1]:
            fields = line.split(",")
            assert len(fields) == 9
            assert float(fields[7]) <= 1.0 + 1e-12
            assert float(fields[8]) <= 1.0 + 1e-12

    def test_deterministic(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        assert run_sweep(cfg, tmp_path / "a") == 0
        assert run_sweep(cfg, tmp_path / "b") == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()

    def test_rank_one_policy_saturates(self, runner, tmp_path):
        cfg = self.sweep_config(tmp_path, rank_policy="rank1", seeds=10)
        result = runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0
        for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:-1]:
            assert float(line.split(",")[7]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "sweep, fragment",
        [
            ('{\n  "schema": 1,\n  "sweep": oops\n}\n', "sweep.json:3:"),
            ({"schema": 2, "sweep": {}}, "schema: expected 1, got 2"),
            ({"schema": 1}, "sweep: missing required key"),
            ({"n_min": 5, "n_max": 3}, "sweep: bad n range [5, 3]"),
            ({"n_min": 1}, "sweep: bad n range [1, 4]"),
            ({"seeds": 0}, "sweep.seeds: need at least 1"),
            ({"rank_policy": "half"}, "sweep.rank_policy: expected full, rank1"),
            ({"rank_policy": "0"}, "sweep.rank_policy: expected full, rank1"),
            ({"rank_policy": 2.5}, "sweep.rank_policy: expected full, rank1"),
            ({"n_min": 2.9}, "sweep.n_min: wrong type float"),
            ({"seeds": True}, "sweep.seeds: wrong type bool"),
            ({"seed": -1}, "sweep.seed: need a nonnegative integer"),
            ({"rank_policy": 5}, "sweep.rank_policy: expected full, rank1 or an integer in [1, 4]"),
            ({"rank_policy": "100000000000"}, "sweep.rank_policy: expected full, rank1 or an int"),
            # past 4300 digits int() raises a message that names no key
            ({"rank_policy": "9" * 5000}, "sweep.rank_policy: expected full, rank1 or an int"),
        ],
    )
    def test_bad_config_exits_one(self, runner, tmp_path, sweep, fragment):
        path = tmp_path / "sweep.json"
        if isinstance(sweep, str):
            path.write_text(sweep)
        elif "schema" in sweep:
            path.write_text(json.dumps(sweep))
        else:
            path = self.sweep_config(tmp_path, **sweep)
        result = runner.invoke(main, ["sweep", "--config", str(path), "--out", str(tmp_path)])
        assert_input_error(result, fragment)
        assert not (tmp_path / "sweep.csv").exists()

    def test_rank_policy_integer_or_string(self, tmp_path):
        for name, policy in (("int", 2), ("str", "2")):
            assert run_sweep(self.sweep_config(tmp_path, rank_policy=policy), tmp_path / name) == 0
        assert (tmp_path / "int" / "sweep.csv").read_bytes() == (tmp_path / "str" / "sweep.csv").read_bytes()

    def test_seed_override_changes_rows(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        run_sweep(cfg, tmp_path / "a")
        run_sweep(cfg, tmp_path / "b", seed=123)
        assert (tmp_path / "a" / "sweep.csv").read_bytes() != (tmp_path / "b" / "sweep.csv").read_bytes()


@pytest.fixture(params=["pyth_holds", "lin_holds"])
def violated(request, monkeypatch):
    # the relations are theorems, so only a faulty report can break one
    real = measures.duality_report

    def faulty(intensities, coh):
        return dataclasses.replace(real(intensities, coh), **{request.param: False})

    monkeypatch.setattr(measures, "duality_report", faulty)
    return request.param


VIOLATION = "error: duality inequality violated beyond tolerance"


class TestViolationExit:
    def test_measures_exits_two_and_keeps_report(self, runner, tmp_path, violated):
        cfg = saturated_two_slit(tmp_path)
        result = runner.invoke(main, ["measures", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert errors == [VIOLATION]
        assert json.loads((tmp_path / "report.json").read_text())[violated] is False

    def test_run_scenario_returns_two(self, tmp_path, violated, capsys):
        assert run_scenario(saturated_two_slit(tmp_path), tmp_path / "out") == 2
        assert capsys.readouterr().err == VIOLATION + "\n"
        assert (tmp_path / "out" / "report.json").exists()

    def test_run_sweep_returns_two(self, tmp_path, violated, capsys):
        cfg = write_scenario(
            tmp_path, {"schema": 1, "sweep": {"n_min": 2, "n_max": 3, "seeds": 2}}, name="sweep.json"
        )
        assert run_sweep(cfg, tmp_path / "out") == 2
        assert capsys.readouterr().err == VIOLATION + "\n"
        assert (tmp_path / "out" / "sweep.csv").exists()


class TestRunScenario:
    def test_full_run_artifacts(self, tmp_path):
        cfg_obj = json.loads(THREE_SLIT.read_text())
        cfg_obj["oracle"]["realizations"] = 500
        cfg = write_scenario(tmp_path, cfg_obj)
        status = run_scenario(cfg, tmp_path / "out")
        assert status == 0
        for name in ("pattern.csv", "report.json", "convergence.json"):
            assert (tmp_path / "out" / name).exists()

    def test_input_error_status(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{ not json")
        assert run_scenario(bad, tmp_path / "out") == 1

    def test_golden_files(self, tmp_path):
        # frozen outputs of the bundled scenario, compared byte for byte.
        # The pattern bytes rest on fixed-order IEEE-754 arithmetic plus the
        # platform libm's cos/sin/hypot; convergence.json also on LAPACK/BLAS
        # in the oracle.  tests/test_engine.py rebuilds the frozen pattern bit
        # for bit from that arithmetic alone.  Regenerating the goldens with
        # scripts/regen_goldens.py is a change of behaviour and is logged in
        # CHANGES.md.
        status = run_scenario(THREE_SLIT, tmp_path)
        assert status == 0
        for name in ("pattern.csv", "report.json", "convergence.json"):
            produced = (tmp_path / name).read_bytes()
            frozen = (GOLDEN / name).read_bytes()
            assert produced == frozen, f"{name} deviates from golden copy"
