"""Scenario configs: versioned JSON in, validated domain objects out."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from duality_lab import coherence
from duality_lab.engine import ScreenGeometry, SlitArray

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Config rejection, anchored by source line (parse) or key path (schema)."""


_REQUIRED = object()


def _get(obj, key, path, expect=None, default=_REQUIRED):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    if key not in obj:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}.{key}: missing required key")
        return default
    value = obj[key]
    # JSON true/false parse to bool, which Python counts as an int
    if expect is not None and (isinstance(value, bool) or not isinstance(value, expect)):
        raise ScenarioError(f"{path}.{key}: wrong type {type(value).__name__}")
    return value


def _read_json(path):
    """Parse a JSON file.  Syntax errors carry path:line:col; NaN, Infinity
    and -Infinity, which Python's json module would accept but JSON does not
    define, are rejected by name."""

    def reject(token):
        raise ScenarioError(f"{path}: {token} is not a JSON number")

    with open(path, "r") as f:
        text = f.read()
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _read_config(path) -> dict:
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ScenarioError("top level: expected an object")
    schema = obj.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ScenarioError(f"schema: expected {SCHEMA_VERSION}, got {schema!r}")
    return obj


def _complex_array(obj, path, shape=None) -> np.ndarray:
    re = np.asarray(_get(obj, "re", path, list), dtype=float)
    im = np.asarray(_get(obj, "im", path, list), dtype=float)
    if re.shape != im.shape:
        raise ScenarioError(f"{path}: re/im shapes differ, {re.shape} vs {im.shape}")
    if shape is not None and re.shape != shape:
        raise ScenarioError(f"{path}: expected shape {shape}, got {re.shape}")
    return re + 1j * im


@dataclass(frozen=True)
class Scenario:
    """One resolved run: slits, coherence, screen, oracle and output options."""

    slits: SlitArray
    coherence: coherence.CoherenceMatrix
    geometry: ScreenGeometry
    oracle_enabled: bool
    oracle_realizations: int
    oracle_seed: int
    scale_w: bool
    pattern_csv: str
    report_json: str
    convergence_json: str


def _resolve_coherence(spec, n: int, seed_override: int | None):
    routes = [k for k in ("matrix", "modes", "random") if k in spec]
    if len(routes) != 1:
        raise ScenarioError(
            "coherence: exactly one of matrix / modes / random is required"
        )
    route = routes[0]
    try:
        if route == "matrix":
            m = _complex_array(spec["matrix"], "coherence.matrix", shape=(n, n))
            return coherence.validate(m)
        if route == "modes":
            block = spec["modes"]
            vectors = _complex_array(block, "coherence.modes")
            pols = None
            if "polarizations" in block:
                pvec = _complex_array(
                    block["polarizations"], "coherence.modes.polarizations", shape=(n, 2)
                )
                pols = coherence.PolarizationSet(pvec)
            decomp = coherence.ModeDecomposition(vectors)
            if decomp.n != n:
                raise ScenarioError(
                    f"coherence.modes: {decomp.n} mode rows for {n} slits"
                )
            return coherence.from_modes(decomp, pols)
        block = spec["random"]
        rank = _get(block, "rank", "coherence.random", int)
        seed = _get(block, "seed", "coherence.random", int)
        if seed_override is not None:
            seed = seed_override
        return coherence.random_coherence(n, rank, seed)
    except coherence.CoherenceMatrixError as exc:
        raise ScenarioError(f"coherence.{route}: {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"coherence.{route}: {exc}") from exc


def load_scenario(path, seed_override: int | None = None) -> Scenario:
    """Load and validate a scenario config.

    JSON parse errors carry the source line and column; schema errors carry
    the dotted key path.  seed_override replaces every seed in the config
    (random coherence and oracle).
    """
    obj = _read_config(path)
    slits_spec = _get(obj, "slits", "top level", dict)
    n = _get(slits_spec, "n", "slits", int)
    if n < 2:
        raise ScenarioError(f"slits.n: need at least 2 slits, got {n}")
    d = _get(slits_spec, "d", "slits", (int, float))
    intensities = _get(slits_spec, "intensities", "slits", list)
    if len(intensities) != n:
        raise ScenarioError(f"slits.intensities: expected {n} entries, got {len(intensities)}")
    phases = slits_spec.get("phases")
    if phases is not None and len(phases) != n:
        raise ScenarioError(f"slits.phases: expected {n} entries, got {len(phases)}")
    try:
        slits = SlitArray(intensities=intensities, spacing=float(d), phases=phases)
    except ValueError as exc:
        raise ScenarioError(f"slits: {exc}") from exc

    coh = _resolve_coherence(_get(obj, "coherence", "top level", dict), n, seed_override)

    geom_spec = _get(obj, "geometry", "top level", dict)
    envelope = geom_spec.get("envelope", "uniform")
    try:
        geometry = ScreenGeometry(
            wavelength=float(_get(geom_spec, "wavelength", "geometry", (int, float))),
            distance=float(_get(geom_spec, "distance", "geometry", (int, float))),
            x_min=float(_get(geom_spec, "x_min", "geometry", (int, float))),
            x_max=float(_get(geom_spec, "x_max", "geometry", (int, float))),
            samples=_get(geom_spec, "samples", "geometry", int),
            envelope=envelope,
            sigma=float(geom_spec["sigma"]) if "sigma" in geom_spec else None,
            phase_model=geom_spec.get("phase_model", "small_angle"),
        )
    except ValueError as exc:
        raise ScenarioError(f"geometry: {exc}") from exc

    oracle_spec = obj.get("oracle", {})
    enabled = bool(oracle_spec.get("enabled", False))
    realizations = int(oracle_spec.get("realizations", 0))
    oracle_seed = int(oracle_spec.get("seed", 0))
    if seed_override is not None:
        oracle_seed = seed_override
    if enabled and realizations < 100:
        raise ScenarioError("oracle.realizations: need at least 100 when enabled")

    outputs = obj.get("outputs", {})
    return Scenario(
        slits=slits,
        coherence=coh,
        geometry=geometry,
        oracle_enabled=enabled,
        oracle_realizations=realizations,
        oracle_seed=oracle_seed,
        scale_w=bool(outputs.get("scale_w", False)),
        pattern_csv=outputs.get("pattern_csv", "pattern.csv"),
        report_json=outputs.get("report_json", "report.json"),
        convergence_json=outputs.get("convergence_json", "convergence.json"),
    )


class Sweep(NamedTuple):
    """`seeds` random instances for each slit count n_min..n_max from the
    master `seed`, each with coherence rank `rank` (None: full rank n)."""

    n_min: int
    n_max: int
    seeds: int
    seed: int
    rank: int | None


def load_sweep(path, seed_override: int | None = None) -> Sweep:
    """Load and validate a sweep config, {"schema": 1, "sweep": {...}}: JSON
    integers n_min (default 2), n_max (8), seeds (100) and seed (0), and
    rank_policy "full" (default), "rank1" or a positive integer, also as a
    string.  seed_override replaces the master seed."""
    spec = _get(_read_config(path), "sweep", "top level", dict)
    n_min = _get(spec, "n_min", "sweep", int, default=2)
    n_max = _get(spec, "n_max", "sweep", int, default=8)
    seeds = _get(spec, "seeds", "sweep", int, default=100)
    seed = _get(spec, "seed", "sweep", int, default=0)
    if n_min < 2 or n_max < n_min:
        raise ScenarioError(f"sweep: bad n range [{n_min}, {n_max}]")
    if seeds < 1:
        raise ScenarioError("sweep.seeds: need at least 1")
    if seed < 0:
        raise ScenarioError(f"sweep.seed: need a nonnegative integer, got {seed}")
    policy = spec.get("rank_policy", "full")
    if policy == "full":
        rank = None
    elif policy == "rank1":
        rank = 1
    elif isinstance(policy, str) and policy.isascii() and policy.isdigit():
        rank = int(policy)
    else:
        rank = policy
    if rank is not None and (type(rank) is not int or rank < 1):  # rejects JSON true too
        raise ScenarioError(
            f"sweep.rank_policy: expected full, rank1 or a positive integer, got {policy!r}"
        )
    seed = seed if seed_override is None else seed_override
    return Sweep(n_min, n_max, seeds, seed, rank)
