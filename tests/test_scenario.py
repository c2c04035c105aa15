import json

import numpy as np
import pytest

import duality_lab as dl
from duality_lab.scenario import ScenarioError, load_scenario


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
