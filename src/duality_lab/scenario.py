"""Scenario configs: versioned JSON in, validated domain objects out."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from duality_lab import coherence
from duality_lab.engine import ScreenGeometry, SlitArray
from duality_lab.oracle import MAX_REALIZATIONS, MIN_REALIZATIONS

SCHEMA_VERSION = 1
MAX_CELLS = 2**22  # cap on geometry.samples x slits.n, the kernel's table size

# Largest number of matrix entries a sweep evaluates as one stack, 4 MB of
# complex entries per array: a long run of large n is cut into stacks of
# this size.  n_max is capped so that one instance's n x n matrix fits a stack.
_STACK_ENTRIES = 1 << 18
MAX_SWEEP_N = math.isqrt(_STACK_ENTRIES)
# A sweep keeps every instance's report, about 1.5 kB, until it writes its
# CSV, so 2^16 instances hold about 100 MB.
MAX_SWEEP_INSTANCES = 2**16


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
    wrong_bool = isinstance(value, bool) and expect is not bool
    if expect is not None and (wrong_bool or not isinstance(value, expect)):
        raise ScenarioError(f"{path}.{key}: wrong type {type(value).__name__}")
    return value


def _read_json(path):
    """Parse a UTF-8 JSON file.  Errors carry the path, syntax errors with
    :line:col.  Bytes that are not UTF-8, integers too large for a float and
    NaN, Infinity and -Infinity, which Python's json module would accept but
    JSON does not define, are rejected by name."""

    def reject(token):
        raise ScenarioError(f"{path}: {token} is not a JSON number")

    def parse_int(token):
        # the length test keeps int() clear of its 4300-digit limit
        if len(token) > 310 or abs(int(token)) > sys.float_info.max:
            raise ScenarioError(f"{path}: integer {token[:12]}... is too large for a float")
        return int(token)

    try:
        with open(path, encoding="utf-8") as f:
            return json.loads(f.read(), parse_constant=reject, parse_int=parse_int)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
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


def _float_array(obj, key, path, shape) -> np.ndarray:
    """obj[key], a JSON array (of arrays, for two axes) of numbers, as a float
    array of the given shape; None in shape admits any length on that axis.
    Booleans, strings, lists and objects are refused, not converted."""
    value = _get(obj, key, path, list)
    cells = np.array(value, dtype=object)
    if cells.ndim != len(shape) or any(w not in (None, got) for w, got in zip(shape, cells.shape)):
        raise ScenarioError(f"{path}.{key}: expected shape {shape}, got {cells.shape}")
    for flat, cell in enumerate(cells.flat):
        if type(cell) not in (int, float):  # exact JSON types: bool is refused
            where = "".join(f"[{i}]" for i in np.unravel_index(flat, cells.shape))
            raise ScenarioError(f"{path}.{key}{where}: wrong type {type(cell).__name__}")
    return cells.astype(float)


def _complex_array(obj, path, shape) -> np.ndarray:
    re = _float_array(obj, "re", path, shape)
    return coherence._complex(re, _float_array(obj, "im", path, re.shape))


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


def _resolve_coherence(spec, n: int, seed_override: int | None):
    routes = [k for k in ("matrix", "modes", "random") if k in spec]
    if len(routes) != 1:
        raise ScenarioError(
            "coherence: exactly one of matrix / modes / random is required"
        )
    route = routes[0]
    try:
        if route == "matrix":
            return coherence.validate(_complex_array(spec["matrix"], "coherence.matrix", (n, n)))
        if route == "modes":
            block = spec["modes"]
            modes = _complex_array(block, "coherence.modes", (n, None))
            pols = None
            if "polarizations" in block:
                pvec = _complex_array(
                    block["polarizations"], "coherence.modes.polarizations", (n, 2)
                )
                pols = coherence.PolarizationSet(pvec)
            return coherence.from_modes(coherence.ModeDecomposition(modes), pols)
        block = spec["random"]
        rank = _get(block, "rank", "coherence.random", int)
        if rank > n:  # refused before random_coherence draws an n x rank array
            raise ScenarioError(f"coherence.random.rank: {rank} is above slits.n = {n}")
        seed = _get(block, "seed", "coherence.random", int)
        if seed_override is not None:
            seed = seed_override
        return coherence.random_coherence(n, rank, seed)
    except ScenarioError:
        raise
    except ValueError as exc:
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
    geom_spec = _get(obj, "geometry", "top level", dict)
    samples = _get(geom_spec, "samples", "geometry", int)
    if samples * n > MAX_CELLS:
        raise ScenarioError(f"geometry.samples: {samples} x {n} slits is over {MAX_CELLS} cells")
    d = _get(slits_spec, "d", "slits", (int, float))
    intensities = _float_array(slits_spec, "intensities", "slits", (n,))
    phases = _float_array(slits_spec, "phases", "slits", (n,)) if "phases" in slits_spec else None
    try:
        slits = SlitArray(intensities=intensities, spacing=float(d), phases=phases)
    except ValueError as exc:
        raise ScenarioError(f"slits: {exc}") from exc

    coh = _resolve_coherence(_get(obj, "coherence", "top level", dict), n, seed_override)

    sigma = _get(geom_spec, "sigma", "geometry", (int, float), default=None)
    try:
        geometry = ScreenGeometry(
            wavelength=float(_get(geom_spec, "wavelength", "geometry", (int, float))),
            distance=float(_get(geom_spec, "distance", "geometry", (int, float))),
            x_min=float(_get(geom_spec, "x_min", "geometry", (int, float))),
            x_max=float(_get(geom_spec, "x_max", "geometry", (int, float))),
            samples=samples,
            envelope=_get(geom_spec, "envelope", "geometry", str, default="uniform"),
            sigma=None if sigma is None else float(sigma),
            phase_model=_get(geom_spec, "phase_model", "geometry", str, default="small_angle"),
        )
    except ValueError as exc:
        raise ScenarioError(f"geometry: {exc}") from exc

    oracle_spec = _get(obj, "oracle", "top level", dict, default={})
    enabled = _get(oracle_spec, "enabled", "oracle", bool, default=False)
    realizations = _get(oracle_spec, "realizations", "oracle", int, default=0)
    oracle_seed = _get(oracle_spec, "seed", "oracle", int, default=0)
    if oracle_seed < 0:
        raise ScenarioError(f"oracle.seed: need a nonnegative integer, got {oracle_seed}")
    if seed_override is not None:
        oracle_seed = seed_override
    if enabled and realizations < MIN_REALIZATIONS:
        raise ScenarioError(f"oracle.realizations: need at least {MIN_REALIZATIONS} when enabled")
    if realizations > MAX_REALIZATIONS:
        raise ScenarioError(f"oracle.realizations: need at most {MAX_REALIZATIONS}")

    outputs = _get(obj, "outputs", "top level", dict, default={})
    return Scenario(
        slits=slits,
        coherence=coh,
        geometry=geometry,
        oracle_enabled=enabled,
        oracle_realizations=realizations,
        oracle_seed=oracle_seed,
        scale_w=_get(outputs, "scale_w", "outputs", bool, default=False),
    )


def load_matrix(path) -> coherence.CoherenceMatrix:
    """Load a coherence-matrix file as CoherenceMatrix.to_json writes it: n a
    JSON integer >= 2, re and im n x n arrays of JSON numbers."""
    obj = _read_json(path)
    n = _get(obj, "n", "top level", int)
    if n < 2:
        raise ScenarioError(f"top level.n: need at least 2 slits, got {n}")
    try:
        return coherence.validate(_complex_array(obj, "top level", (n, n)))
    except coherence.CoherenceMatrixError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


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
    rank_policy "full" (default), "rank1" or a positive integer up to n_max,
    also as a string of at most as many digits as n_max.  seed_override
    replaces the master seed.

    n_max is at most MAX_SWEEP_N = 512, so one instance's n x n matrix fits
    one stack of _STACK_ENTRIES entries, and the sweep holds at most
    MAX_SWEEP_INSTANCES = 2^16 instances, (n_max - n_min + 1) * seeds, so the
    reports it keeps stay near 100 MB."""
    spec = _get(_read_config(path), "sweep", "top level", dict)
    n_min = _get(spec, "n_min", "sweep", int, default=2)
    n_max = _get(spec, "n_max", "sweep", int, default=8)
    seeds = _get(spec, "seeds", "sweep", int, default=100)
    seed = _get(spec, "seed", "sweep", int, default=0)
    if n_min < 2 or n_max < n_min:
        raise ScenarioError(f"sweep: bad n range [{n_min}, {n_max}]")
    if n_max > MAX_SWEEP_N:
        raise ScenarioError(f"sweep.n_max: need at most {MAX_SWEEP_N}, got {n_max}")
    if seeds < 1:
        raise ScenarioError("sweep.seeds: need at least 1")
    counts = n_max - n_min + 1
    if seeds > MAX_SWEEP_INSTANCES // counts:
        raise ScenarioError(
            f"sweep.seeds: need at most {MAX_SWEEP_INSTANCES // counts} for {counts} "
            f"slit counts, got {seeds}"
        )
    if seed < 0:
        raise ScenarioError(f"sweep.seed: need a nonnegative integer, got {seed}")
    policy = spec.get("rank_policy", "full")
    if policy == "full":
        rank = None
    elif policy == "rank1":
        rank = 1
    elif isinstance(policy, str) and policy.isascii() and policy.isdigit():
        # a longer digit string is out of range, and past 4300 digits int()
        # would raise an error that names no key
        rank = int(policy) if len(policy) <= len(str(n_max)) else policy
    else:
        rank = policy
    # type() rejects JSON true; the upper bound comes before random_coherence
    # draws an n x rank array
    if rank is not None and (type(rank) is not int or not 1 <= rank <= n_max):
        raise ScenarioError(
            f"sweep.rank_policy: expected full, rank1 or an integer in [1, {n_max}], got {policy!r}"
        )
    seed = seed if seed_override is None else seed_override
    return Sweep(n_min, n_max, seeds, seed, rank)
