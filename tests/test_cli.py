import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import duality_lab as dl
from duality_lab import analysis, cli, engine, measures, oracle
from duality_lab.cli import main, run_scenario, run_sweep

from goldens import GOLDENS, REPO, ROOT as GOLDEN_ROOT, differing, produce

THREE_SLIT = REPO / "scenarios" / "three_slit.json"
GOLDEN = GOLDEN_ROOT / "three_slit"
# numpy's dispatch targets found on this CPU, derived as the CI workflow
# does; none are found where they are disabled already
FOUND_SIMD = " ".join(np.__config__.CONFIG["SIMD Extensions"].get("found", []))

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

    def test_outputs_scale_w(self, runner, tmp_path):
        cfg_obj = json.loads(saturated_two_slit(tmp_path).read_text())
        cfg_obj["outputs"] = {"scale_w": True}
        cfg = write_scenario(tmp_path, cfg_obj)
        result = runner.invoke(main, ["pattern", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0
        first_x = float((tmp_path / "pattern.csv").read_text().splitlines()[1].split(",")[0])
        assert first_x == pytest.approx(-4.0)

    def test_scale_w_flag(self, runner, tmp_path):
        # outputs.scale_w is the one unit switch; the flag that repeated it
        # is an unknown option, a usage error that writes nothing
        out = tmp_path / "out"
        for command in ("pattern", "mc-validate"):
            args = [command, "--config", str(THREE_SLIT), "--out", str(out), "--scale-w"]
            result = runner.invoke(main, args)
            assert_input_error(result, "--scale-w")
            assert "No such option" in result.output
            assert not out.exists()

    def test_exact_model_at_a_huge_window(self, runner, tmp_path):
        # x_min/x_max = -+1e200: the exact model's (x - pos_i)^2 would
        # overflow to nan unscaled; a RuntimeWarning is an error here
        cfg_obj = json.loads(saturated_two_slit(tmp_path).read_text())
        cfg_obj["geometry"].update(x_min=-1e200, x_max=1e200, phase_model="exact")
        cfg = write_scenario(tmp_path, cfg_obj)
        result = runner.invoke(main, ["pattern", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        pat = dl.load_pattern_csv(tmp_path / "pattern.csv", n=2, fringe_width=1.0)
        assert np.all(np.isfinite(pat.total)) and np.all(pat.total <= 4.0 * (1.0 + 1e-15))


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

    def test_names_the_file_line_after_a_blank_line(self, runner, tmp_path):
        # numpy skips the blank line 6, which once made a nan on line 11
        # read as "line 10"
        lines = (GOLDEN / "pattern.csv").read_text().splitlines()
        lines[9] = "nan," + lines[9].split(",", 1)[1]
        lines.insert(5, "")
        csv = tmp_path / "pattern.csv"
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["analyze", "--config", str(THREE_SLIT), "--csv", str(csv), "--out", str(out)]
        )
        assert_input_error(result, "line 11, column x: non-finite value")

    @pytest.mark.parametrize(
        "change, fragment",
        [
            (lambda cells: [cells[0], "abc", cells[2]], ", column total: not a number 'abc'"),
            # float() reads this cell as 10.0, np.loadtxt refuses it
            (lambda cells: [cells[0], "1_0", cells[2]], ", column total: not a number '1_0'"),
            (lambda cells: cells[:2], ": expected 3 columns, got 2"),
        ],
        ids=["not_a_number", "digit_separator", "missing_cell"],
    )
    @pytest.mark.parametrize("blank_lines", [0, 1])
    def test_names_the_file_line_of_an_unreadable_row(
        self, runner, tmp_path, change, fragment, blank_lines
    ):
        # numpy once named neither the file nor its line: "abc" on line 101
        # was "row 99, column 2" and a missing cell there "row 100"
        lines = (GOLDEN / "pattern.csv").read_text().splitlines()
        lines[100] = ",".join(change(lines[100].split(",")))
        lines[5:5] = [""] * blank_lines
        csv = tmp_path / "pattern.csv"
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["analyze", "--config", str(THREE_SLIT), "--csv", str(csv), "--out", str(out)]
        )
        assert_input_error(result, f"error: {csv}: line {101 + blank_lines}{fragment}")
        assert result.output.count("error:") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "order, fragment",
        [
            (lambda rows: rows[:1] + rows, "line 3: x -0.04 does not exceed the previous row's -0.04"),
            (lambda rows: rows[::-1], "line 3: x 0.03998046398046399 does not exceed the previous"),
        ],
        ids=["first_row_doubled", "reversed"],
    )
    def test_rejects_x_that_does_not_increase(self, runner, tmp_path, order, fragment):
        # a doubled first row once divided by a zero step and exited 0, and a
        # reversed grid reported "-511.9 samples per fringe"
        lines = (GOLDEN / "pattern.csv").read_text().splitlines(keepends=True)
        csv = tmp_path / "pattern.csv"
        csv.write_text("".join(lines[:1] + order(lines[1:])))
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["analyze", "--config", str(THREE_SLIT), "--csv", str(csv), "--out", str(out)]
        )
        assert_input_error(result, fragment)
        assert result.output.count("error:") == 1
        assert not (out / "analysis.json").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "keep, fragment",
        [
            (slice(0, 2), "pattern has fewer than 2 samples"),
            (slice(0, 1), "no data rows after the header"),
            (slice(1, None), "first line is not the header x,total,incoherent"),
        ],
        ids=["one_row", "header_only", "no_header"],
    )
    def test_rejects_short_or_headerless_csv(self, runner, tmp_path, keep, fragment):
        # one row once failed as "expected 3 columns", a bare header printed
        # numpy's UserWarning first, and a missing header silently dropped
        # the first row with exit 0
        lines = (GOLDEN / "pattern.csv").read_text().splitlines(keepends=True)
        csv = tmp_path / "pattern.csv"
        csv.write_text("".join(lines[keep]))
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["analyze", "--config", str(THREE_SLIT), "--csv", str(csv), "--out", str(out)]
        )
        assert_input_error(result, fragment)
        assert result.output.count("error:") == 1
        assert len(result.output.splitlines()) == 1
        assert not (out / "analysis.json").exists()

    @pytest.mark.parametrize("scale_w", [False, True], ids=["metres", "scaled"])
    def test_reads_the_unit_from_the_header(self, runner, tmp_path, scale_w):
        # the header names x's unit, so analyze reads either file under a
        # config in metres; the operational V_C does not depend on the unit x is in
        out = str(tmp_path)
        cfg_obj = json.loads(THREE_SLIT.read_text())
        cfg_obj["outputs"]["scale_w"] = scale_w
        cfg = write_scenario(tmp_path, cfg_obj)
        result = runner.invoke(main, ["pattern", "--config", str(cfg), "--out", out])
        assert result.exit_code == 0, result.output
        csv = tmp_path / "pattern.csv"
        assert csv.read_text().split(",", 1)[0] == ("x_w" if scale_w else "x")
        result = runner.invoke(main, ["analyze", "--config", str(THREE_SLIT), "--csv", str(csv), "--out", out])
        assert result.exit_code == 0, result.output
        sc = dl.load_scenario(THREE_SLIT)
        metres = dl.extract_vc(dl.pattern(sc.slits, sc.coherence, sc.geometry))
        assert json.loads((tmp_path / "analysis.json").read_text())["v_c_operational"] == metres


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

    def test_builds_each_pattern_once(self, runner, tmp_path, monkeypatch):
        # one analytic pattern per run, for the CSV and the convergence report
        calls = []
        original = engine.pattern
        monkeypatch.setattr(engine, "pattern", lambda *a: calls.append(a) or original(*a))
        cfg_obj = json.loads(THREE_SLIT.read_text())
        cfg_obj["oracle"]["realizations"] = 500
        cfg = write_scenario(tmp_path, cfg_obj)
        result = runner.invoke(main, ["mc-validate", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1
        assert run_scenario(cfg, tmp_path / "out") == 0
        assert len(calls) == 2

    def test_scaled_positions_in_the_csv_unit(self, runner, tmp_path):
        # under scale_w every position a run writes is in fringe widths:
        # convergence.json at_x was once in metres beside fringe-width CSVs
        cfg_obj = json.loads(THREE_SLIT.read_text())
        cfg_obj["oracle"]["realizations"] = 500
        cfg_obj["outputs"]["scale_w"] = True
        cfg = write_scenario(tmp_path, cfg_obj)
        for command in ("mc-validate", "pattern"):
            result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(tmp_path)])
            assert result.exit_code == 0, result.output
        conv = json.loads((tmp_path / "convergence.json").read_text())
        lines = (tmp_path / "mc_pattern.csv").read_text().splitlines()[1:]
        assert repr(conv["at_x"]) in {line.split(",")[0] for line in lines}
        result = runner.invoke(
            main,
            ["analyze", "--config", str(cfg), "--csv", str(tmp_path / "pattern.csv"),
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert abs(json.loads((tmp_path / "analysis.json").read_text())["x_star"]) <= 0.5

    def test_disabled_oracle_exits_one(self, runner, tmp_path):
        cfg = saturated_two_slit(tmp_path)
        result = runner.invoke(main, ["mc-validate", "--config", str(cfg), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "not enabled" in result.output

    @staticmethod
    def zero_peak(tmp_path):
        # a narrow gaussian envelope far off axis leaves the analytic pattern
        # exactly zero across the window, so no relative deviation exists
        cfg_obj = json.loads(THREE_SLIT.read_text())
        cfg_obj["oracle"]["realizations"] = 500
        cfg_obj["geometry"].update(envelope="gaussian", sigma=1e-4, x_min=0.5, x_max=0.6)
        return write_scenario(tmp_path, cfg_obj)

    # a floating-point warning would be an error here, not a line on stderr
    @pytest.mark.filterwarnings("error")
    def test_zero_analytic_peak_exits_one(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["mc-validate", "--config", str(self.zero_peak(tmp_path)), "--out", str(out)]
        )
        assert_input_error(result, "error: convergence: the analytic primary maximum 0.0")
        assert result.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_zero_analytic_peak_in_run_scenario(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_scenario(self.zero_peak(tmp_path), out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: convergence: the analytic primary maximum 0.0")
        assert err.count("\n") == 1
        # pattern.csv and report.json were once written before the oracle ran
        assert not out.exists()


class TestRefusedRunWritesNothing:
    @pytest.mark.parametrize(
        "command, owner, name",
        [
            ("pattern", engine, "pattern"),
            ("measures", measures, "duality_report"),
            ("analyze", analysis, "extract_vc"),
            ("mc-validate", oracle, "mc_pattern"),
        ],
        ids=["pattern", "measures", "analyze", "mc-validate"],
    )
    def test_value_error_exits_one(self, runner, tmp_path, monkeypatch, command, owner, name):
        # a ValueError from the computation once escaped `pattern`, `measures`
        # and `mc-validate` as a traceback
        def refuse(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(owner, name, refuse)
        out = tmp_path / "out"
        extra = ["--csv", str(GOLDEN / "pattern.csv")] if command == "analyze" else []
        result = runner.invoke(main, [command, "--config", str(THREE_SLIT), *extra, "--out", str(out)])
        assert_input_error(result, "error: refused")
        assert result.output == "error: refused\n"
        assert not out.exists()

    def test_keyboard_interrupt_exits_one(self, runner, tmp_path, monkeypatch):
        # click turns Ctrl-C inside a command into Abort, which ends in the
        # same one error line as an input error
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "pattern", interrupt)
        out = tmp_path / "out"
        result = runner.invoke(main, ["pattern", "--config", str(THREE_SLIT), "--out", str(out)])
        assert_input_error(result, "error: aborted")
        assert result.output.count("error:") == 1
        assert not out.exists()


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


class TestNonUtf8Input:
    @pytest.mark.parametrize(
        "command",
        ["pattern", "measures", "analyze", "mc-validate", "sweep", "gamma-n", "run_scenario",
         "analyze-csv"],
    )
    def test_exits_one_naming_the_file(self, runner, tmp_path, capsys, command):
        # a first byte of 0xff once ended `measures` in a UnicodeDecodeError
        # traceback and made run_scenario raise instead of returning 1
        bad, out = tmp_path / "latin1", tmp_path / "out"
        config, csv = bad, GOLDEN / "pattern.csv"
        if command == "analyze-csv":
            command, config, csv = "analyze", THREE_SLIT, bad
            bad.write_bytes(b"\xff" + (GOLDEN / "pattern.csv").read_bytes())
        else:
            bad.write_bytes(b"\xff" + THREE_SLIT.read_bytes())
        if command == "run_scenario":
            assert run_scenario(config, out) == 1
            output = capsys.readouterr().err
        else:
            extra = ["--csv", str(csv)] if command == "analyze" else []
            extra += [] if command == "gamma-n" else ["--out", str(out)]
            result = runner.invoke(main, [command, "--config", str(config), *extra])
            assert_input_error(result, "error: ")
            output = result.output
        assert "Traceback" not in output
        errors = [line for line in output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and f"{bad}: not UTF-8 text" in errors[0], output


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
            ("coherence", {"random": 5}, "coherence.random: expected an object"),
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
            ({"n": 1}, "top level.n: need at least 2 slits, got 1"),
        ],
        ids=["string-re", "string-n", "bool-n", "string-entry", "one-slit"],
    )
    def test_gamma_n_matrix_wrong_type_exits_one(self, runner, tmp_path, change, fragment):
        # each of these once died with a traceback or printed a gamma_n
        path = tmp_path / "matrix.json"
        matrix = {"n": 2, "re": [[1.0, 0.5], [0.5, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        path.write_text(json.dumps({**matrix, **change}))
        assert_input_error(runner.invoke(main, ["gamma-n", "--config", str(path)]), fragment)

    @pytest.mark.parametrize(
        "command, base, path, key",
        [
            ("measures", "three_slit", "top level", "oracel"),
            ("measures", "three_slit", "slits", "phase"),
            ("measures", "three_slit", "coherence", "matrices"),
            ("measures", "three_slit", "coherence.matrix", "imag"),
            ("measures", "modes_polarized", "coherence.modes", "polarization"),
            ("measures", "modes_polarized", "coherence.modes.polarizations", "real"),
            ("measures", "random_phases", "coherence.random", "seeds"),
            ("measures", "three_slit", "geometry", "envelop"),
            ("measures", "three_slit", "oracle", "enable"),
            ("measures", "three_slit", "outputs", "scale"),
            ("sweep", "random_sweep", "top level", "sweeps"),
            ("sweep", "random_sweep", "sweep", "seeds_"),
            ("gamma-n", "matrix file", "top level", "N"),
        ],
    )
    def test_unknown_key_exits_one(self, runner, tmp_path, command, base, path, key):
        # a misspelled key was once ignored: "oracle": {"enable": true}
        # skipped the oracle and exited 0
        if base == "matrix file":
            cfg_obj = json.loads(dl.random_coherence(3, 2, seed=1).to_json())
        else:
            config = THREE_SLIT if base == "three_slit" else GOLDEN_ROOT / base / "config.json"
            cfg_obj = json.loads(config.read_text())
        section = cfg_obj
        for name in path.split(".") if path != "top level" else ():
            section = section[name]
        section[key] = 1
        cfg = write_scenario(tmp_path, cfg_obj)
        out = tmp_path / "out"
        extra = [] if command == "gamma-n" else ["--out", str(out)]
        result = runner.invoke(main, [command, "--config", str(cfg), *extra])
        assert_input_error(result, f"error: {path}.{key}: unknown key")
        assert not out.exists()

    def test_booleans_accepted_where_expected(self, tmp_path):
        cfg_obj = json.loads(THREE_SLIT.read_text())
        cfg_obj["outputs"]["scale_w"] = True
        cfg_obj["oracle"]["enabled"] = False
        sc = dl.load_scenario(write_scenario(tmp_path, cfg_obj))
        assert sc.scale_w is True and sc.oracle_enabled is False


class TestOutputNames:
    def test_old_output_keys_do_not_move_files(self, tmp_path, capsys):
        # the retired output-path keys are unknown keys: refused, and no file
        # is written inside or beside --out
        cfg_obj = json.loads(THREE_SLIT.read_text())
        cfg_obj["oracle"]["realizations"] = 500
        cfg_obj["outputs"].update(
            pattern_csv="../x.csv", report_json="../r.json", convergence_json="../c.json"
        )
        cfg = write_scenario(tmp_path, cfg_obj)
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 1
        assert "error: outputs.pattern_csv: unknown key" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


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
        rows = [line.split(",") for line in lines[1:-1]]
        for fields in rows:
            assert len(fields) == 9
            assert float(fields[7]) <= 1.0 + 1e-12
            assert float(fields[8]) <= 1.0 + 1e-12
        # each maximum is named by the first row in file order that holds it
        named = []
        for key, column in (("max_pyth", 7), ("max_lin", 8)):
            values = [float(fields[column]) for fields in rows]
            first = rows[values.index(max(values))]
            named.append(f"{key}_at={first[0]}:{first[1]}")
        assert summary[4:6] == named
        assert summary[6:] == [""] * 3

    @pytest.mark.parametrize("policy", ["full", "rank1", "2"])
    def test_rows_are_the_one_instance_route(self, tmp_path, policy):
        # each row rebuilt from the three streams of its slit count, the
        # children of SeedSequence((master, n)), one instance at a time
        # through the public calls: intensities from the shape and scale
        # streams, the coherence matrix from the mode stream
        cfg = self.sweep_config(tmp_path, n_min=2, n_max=6, seeds=4, rank_policy=policy, seed=31)
        assert run_sweep(cfg, tmp_path) == 0
        expected = []
        for n in range(2, 7):
            rank = {"full": n, "rank1": 1, "2": 2}[policy]
            shape, scale, modes = (
                np.random.default_rng(s) for s in np.random.SeedSequence((31, n)).spawn(3)
            )
            for s in range(4):
                intensities = shape.dirichlet(np.ones(n)) * scale.uniform(0.1, 10.0)
                r = dl.duality_report(intensities, dl.random_coherence(n, rank, modes))
                expected.append(
                    f"{n},{s},{r.v_c!r},{r.d!r},{r.d_prime!r},{r.gamma_n!r},"
                    f"{r.c!r},{r.pyth_lhs!r},{r.lin_lhs!r}"
                )
        assert (tmp_path / "sweep.csv").read_text().splitlines()[1:-1] == expected

    def test_more_seeds_keep_the_earlier_rows(self, tmp_path):
        rows = {}
        for seeds in (3, 6):
            assert run_sweep(self.sweep_config(tmp_path, seeds=seeds), tmp_path / str(seeds)) == 0
            lines = (tmp_path / str(seeds) / "sweep.csv").read_text().splitlines()[1:-1]
            rows[seeds] = [line for line in lines if int(line.split(",")[1]) < 3]
        assert len(rows[3]) == 3 * 3
        assert rows[6] == rows[3]

    def test_stack_size_leaves_the_file_unchanged(self, tmp_path, monkeypatch):
        cfg = self.sweep_config(tmp_path)
        assert run_sweep(cfg, tmp_path / "whole") == 0
        # stacks of 12 + 8 seeds at n=2, 5 at n=3, 3 + ... + 2 at n=4
        monkeypatch.setattr(cli, "_STACK_ENTRIES", 50)
        assert run_sweep(cfg, tmp_path / "cut") == 0
        assert (tmp_path / "cut" / "sweep.csv").read_bytes() == (tmp_path / "whole" / "sweep.csv").read_bytes()

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
            # refused at load time, never run
            ({"n_max": 10**6, "seeds": 10**9}, "sweep.n_max: need at most 512"),
            ({"seeds": 10**9}, "sweep.seeds: need at most 21845 for 3 slit counts"),
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
    # the relations are theorems, so only a faulty measure can break one;
    # _columns is the core of duality_report and of the sweep's stacks, and
    # here puts the left-hand side of the relation named by the verdict
    # above 1 + INEQUALITY_TOL in every instance
    lhs = request.param.replace("holds", "lhs")
    real = measures._columns

    def faulty(inten, g):
        columns = real(inten, g)
        return columns._replace(**{lhs: [1.0 + 2.0 * measures.INEQUALITY_TOL] * len(columns.v_c)})

    monkeypatch.setattr(measures, "_columns", faulty)
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

    def test_sweep_exits_two_and_keeps_csv(self, runner, tmp_path, violated):
        cfg = write_scenario(
            tmp_path, {"schema": 1, "sweep": {"n_min": 2, "n_max": 3, "seeds": 2}}, name="sweep.json"
        )
        result = runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert errors == [VIOLATION]
        assert (tmp_path / "out" / "sweep.csv").exists()


@pytest.fixture(params=["pyth_lhs", "lin_lhs"])
def one_nan(request, monkeypatch):
    # a NaN left-hand side in one instance of each stack, not its first,
    # which max starts from, and of least other left-hand side: max never
    # picks it, so the reports of the two extremes alone would pass
    real = measures._columns

    def faulty(inten, g):
        columns = real(inten, g)
        other = columns.lin_lhs if request.param == "pyth_lhs" else columns.pyth_lhs
        getattr(columns, request.param)[min(range(1, len(other)), key=other.__getitem__)] = float("nan")
        return columns

    monkeypatch.setattr(measures, "_columns", faulty)
    return request.param


class TestNanExit:
    def sweep_config(self, tmp_path):
        return write_scenario(
            tmp_path, {"schema": 1, "sweep": {"n_min": 2, "n_max": 3, "seeds": 4}}, name="sweep.json"
        )

    def test_run_sweep_returns_two(self, tmp_path, one_nan, capsys):
        assert run_sweep(self.sweep_config(tmp_path), tmp_path / "out") == 2
        assert capsys.readouterr().err == VIOLATION + "\n"
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        column = 7 if one_nan == "pyth_lhs" else 8
        assert [line.split(",")[column] for line in lines[1:-1]].count("nan") == 2
        assert "nan" not in lines[-1]

    def test_sweep_exits_two(self, runner, tmp_path, one_nan):
        cfg = self.sweep_config(tmp_path)
        result = runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert errors == [VIOLATION]


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
        # every golden in the table of tests/goldens.py, compared byte for
        # byte.  Every complex value behind them, g included, is formed by
        # fixed-order IEEE-754 arithmetic in real ufuncs, plus the platform
        # libm's cos/sin/hypot/exp; the oracle and the random rows also rest
        # on numpy's seeded Generator stream.  No LAPACK or BLAS routine and
        # no numpy complex ufunc enters them.  tests/test_engine.py rebuilds
        # the frozen three-slit pattern bit for bit from that arithmetic
        # alone.  Regenerating the goldens with scripts/regen_goldens.py is a
        # change of behaviour and is logged in CHANGES.md.
        for name in GOLDENS:
            assert produce(name, tmp_path / name) == 0, name
            assert differing(name, tmp_path / name) == [], name

    def test_golden_table_lists_every_golden(self):
        # the table is the one list of goldens: a directory without a row, a
        # row without its config or files, or a file nobody produces fails
        assert {p.name for p in GOLDEN_ROOT.iterdir() if p.is_dir()} == set(GOLDENS)
        for name, (config, files) in GOLDENS.items():
            present = {p.name for p in (GOLDEN_ROOT / name).iterdir()} - {"config.json"}
            assert config.is_file() and present == set(files), name

    @pytest.mark.parametrize(
        "name, setting",
        [
            # the bundled scenario's cases keep their ids, the setting's alone
            pytest.param(name, setting, id=label if name == "three_slit" else f"{name}-{label}")
            for name in GOLDENS
            for label, setting in (
                ("openblas-haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
                ("npy-dispatch-disabled", {"NPY_DISABLE_CPU_FEATURES": FOUND_SIMD} if FOUND_SIMD else {}),
                ("openblas-sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"}),
            )
        ],
    )
    def test_golden_files_under_other_kernels(self, tmp_path, name, setting):
        # the goldens must not depend on which BLAS kernel or SIMD loops the
        # process picks; each setting is the child process's own, and an
        # empty one leaves the inherited environment as it is
        path = [str(REPO / "src"), str(REPO / "tests"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, **setting, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        script = "import sys, goldens; sys.exit(goldens.produce(*sys.argv[1:]))"
        child = subprocess.run(
            [sys.executable, "-c", script, name, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert differing(name, tmp_path) == [], f"{name} deviates under {setting}"
