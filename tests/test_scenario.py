import copy
import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import duality_lab as dl
from duality_lab.cli import main
from duality_lab.oracle import MAX_REALIZATIONS
from duality_lab.scenario import (
    MAX_CELLS,
    MAX_SWEEP_INSTANCES,
    MAX_SWEEP_N,
    ScenarioError,
    load_matrix,
    load_scenario,
    load_sweep,
)


def base_config(**overrides):
    cfg = {
        "schema": 1,
        "slits": {"n": 2, "d": 50e-6, "intensities": [1.0, 1.0]},
        "coherence": {
            "matrix": {"re": [[1.0, 0.5], [0.5, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        },
        "geometry": {
            "wavelength": 500e-9,
            "distance": 1.0,
            "x_min": -0.04,
            "x_max": 0.04,
            "samples": 4096,
        },
    }
    cfg.update(overrides)
    return cfg


def write(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def test_loads_minimal_config(tmp_path):
    sc = load_scenario(write(tmp_path, base_config()))
    assert sc.slits.n == 2
    assert sc.coherence.entries[0, 1] == 0.5
    assert sc.geometry.samples == 4096
    assert sc.oracle_enabled is False
    assert sc.scale_w is False


def test_parse_error_is_line_anchored(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema": 1,\n  "slits": oops\n}\n')
    with pytest.raises(ScenarioError, match=r":3:"):
        load_scenario(path)


def test_top_level_must_be_an_object(tmp_path):
    with pytest.raises(ScenarioError, match="top level: expected an object"):
        load_scenario(write(tmp_path, [base_config()]))


def test_schema_version_checked(tmp_path):
    with pytest.raises(ScenarioError, match="schema"):
        load_scenario(write(tmp_path, base_config(schema=2)))


def test_missing_key_names_path(tmp_path):
    cfg = base_config()
    del cfg["geometry"]["wavelength"]
    with pytest.raises(ScenarioError, match="geometry.wavelength"):
        load_scenario(write(tmp_path, cfg))


def test_single_slit_names_requirement(tmp_path):
    cfg = base_config()
    cfg["slits"] = {"n": 1, "d": 50e-6, "intensities": [1.0]}
    with pytest.raises(ScenarioError, match="at least 2"):
        load_scenario(write(tmp_path, cfg))


def test_intensity_length_mismatch(tmp_path):
    cfg = base_config()
    cfg["slits"]["intensities"] = [1.0, 1.0, 1.0]
    with pytest.raises(ScenarioError, match="slits.intensities"):
        load_scenario(write(tmp_path, cfg))


def test_invalid_coherence_matrix_reported(tmp_path):
    cfg = base_config()
    cfg["coherence"]["matrix"]["re"] = [[1.0, 1.2], [1.2, 1.0]]
    with pytest.raises(ScenarioError, match="coherence.matrix"):
        load_scenario(write(tmp_path, cfg))


def test_exactly_one_coherence_route(tmp_path):
    cfg = base_config()
    cfg["coherence"]["random"] = {"rank": 2, "seed": 1}
    with pytest.raises(ScenarioError, match="exactly one"):
        load_scenario(write(tmp_path, cfg))


def test_random_coherence_route(tmp_path):
    cfg = base_config(coherence={"random": {"rank": 2, "seed": 11}})
    sc = load_scenario(write(tmp_path, cfg))
    assert np.array_equal(sc.coherence.entries, dl.random_coherence(2, 2, seed=11).entries)


def test_seed_override_applies(tmp_path):
    cfg = base_config(coherence={"random": {"rank": 2, "seed": 11}})
    cfg["oracle"] = {"enabled": True, "realizations": 500, "seed": 3}
    sc = load_scenario(write(tmp_path, cfg), seed_override=99)
    assert np.array_equal(sc.coherence.entries, dl.random_coherence(2, 2, seed=99).entries)
    assert sc.oracle_seed == 99


def test_modes_route_with_polarizations(tmp_path):
    cfg = base_config(
        coherence={
            "modes": {
                "re": [[1.0], [1.0]],
                "im": [[0.0], [0.0]],
                "polarizations": {
                    "re": [[1.0, 0.0], [0.0, 1.0]],
                    "im": [[0.0, 0.0], [0.0, 0.0]],
                },
            }
        }
    )
    sc = load_scenario(write(tmp_path, cfg))
    assert abs(sc.coherence.entries[0, 1]) == 0.0


def test_oracle_needs_enough_realizations(tmp_path):
    cfg = base_config(oracle={"enabled": True, "realizations": 10, "seed": 0})
    with pytest.raises(ScenarioError, match="oracle.realizations"):
        load_scenario(write(tmp_path, cfg))


@pytest.mark.parametrize("enabled", [True, False])
def test_oracle_realizations_are_bounded(tmp_path, enabled):
    # only loaded: an ensemble this size is never drawn
    cfg = base_config(oracle={"enabled": enabled, "realizations": 10**12, "seed": 0})
    with pytest.raises(ScenarioError, match="oracle.realizations: need at most"):
        load_scenario(write(tmp_path, cfg))
    cfg["oracle"]["realizations"] = MAX_REALIZATIONS
    assert load_scenario(write(tmp_path, cfg)).oracle_realizations == MAX_REALIZATIONS


def test_gaussian_geometry(tmp_path):
    cfg = base_config()
    cfg["geometry"]["envelope"] = "gaussian"
    cfg["geometry"]["sigma"] = 0.2
    sc = load_scenario(write(tmp_path, cfg))
    assert sc.geometry.envelope == "gaussian"
    assert sc.geometry.sigma == 0.2


def test_bad_geometry_reported(tmp_path):
    cfg = base_config()
    cfg["geometry"]["x_min"] = 1.0
    with pytest.raises(ScenarioError, match="geometry"):
        load_scenario(write(tmp_path, cfg))


@pytest.mark.parametrize(
    "section, key, value",
    [("slits", "n", True), ("geometry", "samples", True), ("geometry", "wavelength", False)],
)
def test_bool_is_not_a_number(tmp_path, section, key, value):
    cfg = base_config()
    cfg[section][key] = value
    with pytest.raises(ScenarioError, match=f"{section}.{key}: wrong type bool"):
        load_scenario(write(tmp_path, cfg))


def test_geometry_keys_are_the_screen_geometry_fields():
    # the geometry section is passed to ScreenGeometry(**section)
    assert list(dl.scenario._GEOMETRY) == [f.name for f in dataclasses.fields(dl.ScreenGeometry)]


def test_samples_cap_checked_before_any_array(tmp_path):
    # one sample over the cap for two slits is refused; at the cap the config
    # loads, and loading builds no grid
    cfg = base_config()
    cfg["geometry"]["samples"] = MAX_CELLS // 2 + 1
    with pytest.raises(ScenarioError, match="geometry.samples: 2097153 x 2 slits"):
        load_scenario(write(tmp_path, cfg))
    cfg["geometry"]["samples"] = MAX_CELLS // 2
    assert load_scenario(write(tmp_path, cfg)).geometry.samples == MAX_CELLS // 2


def test_slit_cap_checked_before_any_array(tmp_path, monkeypatch):
    # n x n arrays (g, A, the Cholesky residual) are bounded by the same cap,
    # which allows n up to 2048: on a cap of 16 cells, one slit over 4 is
    # refused before coherence is drawn, and 4 slits still load
    assert math.isqrt(MAX_CELLS) == 2048
    monkeypatch.setattr(dl.scenario, "MAX_CELLS", 16)
    calls = []
    real = dl.coherence.random_coherence
    monkeypatch.setattr(
        dl.coherence, "random_coherence", lambda *args: calls.append(args) or real(*args)
    )
    cfg = base_config(coherence={"random": {"rank": 1, "seed": 3}})
    cfg["geometry"]["samples"] = 2
    cfg["slits"] = {"n": 5, "d": 50e-6, "intensities": [1.0] * 5}
    with pytest.raises(ScenarioError, match="slits.n: 5 x 5 slits is over 16 cells"):
        load_scenario(write(tmp_path, cfg))
    assert calls == []
    cfg["slits"] = {"n": 4, "d": 50e-6, "intensities": [1.0] * 4}
    assert load_scenario(write(tmp_path, cfg)).slits.n == 4
    assert calls == [(4, 1, 3)]


@pytest.mark.parametrize(
    "sweep, fragment",
    [
        ({"n_max": 10**6, "seeds": 10**9}, "sweep.n_max: need at most 512, got 1000000"),
        ({"n_min": 2, "n_max": MAX_SWEEP_N + 1}, "sweep.n_max: need at most 512"),
        ({"n_max": 8, "seeds": 10**9}, "sweep.seeds: need at most 9362 for 7 slit counts"),
        ({"n_min": 9, "n_max": 9, "seeds": MAX_SWEEP_INSTANCES + 1}, "need at most 65536 for 1"),
    ],
)
def test_sweep_size_is_bounded_at_load(tmp_path, sweep, fragment):
    # loaded only: a sweep of this size is never run
    with pytest.raises(ScenarioError, match=re.escape(fragment)):
        load_sweep(write(tmp_path, {"schema": 1, "sweep": sweep}))


def test_sweep_size_bounds_are_inclusive(tmp_path):
    at_n = load_sweep(write(tmp_path, {"schema": 1, "sweep": {"n_max": MAX_SWEEP_N, "seeds": 128}}))
    assert (at_n.n_max, at_n.seeds) == (MAX_SWEEP_N, 128)
    cfg = {"schema": 1, "sweep": {"n_min": 9, "n_max": 9, "seeds": MAX_SWEEP_INSTANCES}}
    assert load_sweep(write(tmp_path, cfg)).seeds == MAX_SWEEP_INSTANCES


THREE_SLIT = json.loads((Path(__file__).parents[1] / "scenarios" / "three_slit.json").read_text())
FUZZ_BASES = {
    "matrix": THREE_SLIT,
    "modes": {**THREE_SLIT, "coherence": {"modes": {
        "re": [[1.0, 0.5], [0.2, 1.0], [0.7, 0.0]], "im": [[0.0, 0.1], [0.0, 0.0], [0.3, 0.0]],
        "polarizations": {"re": [[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]], "im": [[0.0, 0.0]] * 3},
    }}},
    "random": {**THREE_SLIT, "coherence": {"random": {"rank": 2, "seed": 5}}},
    "sweep": {"schema": 1, "sweep": {"n_min": 2, "n_max": 3, "seeds": 2, "rank_policy": "full"}},
    "matrix file": json.loads(dl.random_coherence(3, 2, seed=1).to_json()),
}
DELETE, RENAME = object(), object()
MUTANTS = [DELETE, None, True, False, "0.5", "full", [], [1.0], {}, 0, -1, 2, 2.5, 1e308, 10**400]


def key_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def has_path(cfg, path):
    node = cfg
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return False
        node = node[key]
    return True


def mutated(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    elif value is RENAME:
        node[f"{path[-1]}_"] = node.pop(path[-1])
    else:
        node[path[-1]] = value
    return cfg


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from(sorted(FUZZ_BASES)), data=st.data())
def test_mutated_config_loads_or_names_the_error(base, data):
    # any one or two values replaced or deleted, or keys renamed: the loader
    # either returns or raises ScenarioError, and the CLI exits 0 or 1
    # without a traceback; a renamed key left in the config is an unknown
    # key, so it exits 1
    cfg = FUZZ_BASES[base]
    renamed = []
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(sorted(key_paths(cfg), key=repr)))
        value = data.draw(st.sampled_from(MUTANTS + [RENAME] * isinstance(path[-1], str)))
        cfg = mutated(cfg, path, value)
        if value is RENAME:
            renamed.append(path[:-1] + (f"{path[-1]}_",))
    load, command = {"sweep": (load_sweep, "sweep"), "matrix file": (load_matrix, "gamma-n")}.get(
        base, (load_scenario, "measures")
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        try:
            load(path)
        except ScenarioError:
            pass
        args = [command, "--config", str(path)] + (["--out", tmp] if command != "gamma-n" else [])
        result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1), result.output
    if any(has_path(cfg, path) for path in renamed):
        assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output
