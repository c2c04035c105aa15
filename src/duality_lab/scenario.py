"""Scenario configs: versioned JSON in, validated domain objects out.

Each config section (the scenario, sweep and matrix-file top levels and every
object below them) is read by _section against one table of its keys: the
section holds only the keys its table names, each of its JSON type.  An
unknown key, a missing required key and a wrong type are refused as a
ScenarioError that names the key path, such as `geometry.envelop: unknown
key`.
"""

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
# Cap on slits.n x slits.n, the size of every n x n array a run builds (g, A,
# the Cholesky residual), and on geometry.samples x slits.n, which bounds the
# exact kernel's rank x samples sums.
MAX_CELLS = 2**22

# Largest number of matrix entries a sweep evaluates as one stack, 4 MB of
# complex entries per array: a long run of large n is cut into stacks of
# this size.  n_max is capped so that one instance's n x n matrix fits a stack.
_STACK_ENTRIES = 1 << 18
MAX_SWEEP_N = math.isqrt(_STACK_ENTRIES)
# A sweep keeps every instance's seven measures as floats, then its CSV rows,
# which it writes line by line.  At 2^16 instances over n 2 to 8, a
# `duality-lab sweep` process peaks near 89 MB resident (x86_64 Linux,
# Python 3.11, numpy 2.4), of which about 30 MB is the interpreter with numpy
# and click and about 46 MB the sweep's own Python allocations.
MAX_SWEEP_INSTANCES = 2**16


class ScenarioError(ValueError):
    """Config rejection, anchored by source line (parse) or key path (schema)."""


_REQUIRED = object()
# The key table of each config section: key -> (JSON type, default).  float
# admits any JSON number and reads it as a float; None admits any value, which
# is checked where it is read.  A left-out key takes its default, unless that
# is _REQUIRED.
_RE_IM = {"re": (list, _REQUIRED), "im": (list, _REQUIRED)}
_SCENARIO = {"slits": (dict, _REQUIRED), "coherence": (dict, _REQUIRED),
             "geometry": (dict, _REQUIRED), "oracle": (dict, {}), "outputs": (dict, {})}
_SLITS = {"n": (int, _REQUIRED), "d": (float, _REQUIRED), "intensities": (list, _REQUIRED),
          "phases": (list, None)}
_COHERENCE = dict.fromkeys(("matrix", "modes", "random"), (None, None))
_MODES = {**_RE_IM, "polarizations": (None, None)}
_RANDOM = {"rank": (int, _REQUIRED), "seed": (int, _REQUIRED)}
# exactly the fields of ScreenGeometry, which the section is passed to
_GEOMETRY = {**dict.fromkeys(("wavelength", "distance", "x_min", "x_max"), (float, _REQUIRED)),
             "samples": (int, _REQUIRED), "envelope": (str, "uniform"), "sigma": (float, None),
             "phase_model": (str, "small_angle")}
_ORACLE = {"enabled": (bool, False), "realizations": (int, 0), "seed": (int, 0)}
_OUTPUTS = {"scale_w": (bool, False)}
_SWEEP = {"n_min": (int, 2), "n_max": (int, 8), "seeds": (int, 100), "seed": (int, 0),
          "rank_policy": (None, "full")}
_MATRIX_FILE = {"n": (int, _REQUIRED), **_RE_IM}


def _section(obj, path, keys) -> dict:
    """The config section obj at key path `path`, read against its key table
    `keys`: every key's value in table order, numbers as floats and a
    left-out key as its default.  Refuses a section that is not an object, a
    key the table does not name, a missing required key and a value of the
    wrong JSON type; JSON true/false parse to bool, which Python counts as an
    int, so a bool is refused unless the type is bool."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    for key in obj:
        if key not in keys:
            raise ScenarioError(f"{path}.{key}: unknown key")
    section = {}
    for key, (expect, default) in keys.items():
        value = obj.get(key, default)
        if value is _REQUIRED:
            raise ScenarioError(f"{path}.{key}: missing required key")
        if key in obj and expect is not None:
            types = (int, float) if expect is float else expect
            if isinstance(value, bool) is not (expect is bool) or not isinstance(value, types):
                raise ScenarioError(f"{path}.{key}: wrong type {type(value).__name__}")
            value = float(value) if expect is float else value
        section[key] = value
    return section


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


def _read_config(path, keys) -> dict:
    """The top level of a scenario or sweep config, read against `keys` and
    the key schema, which must be SCHEMA_VERSION."""
    obj = _section(_read_json(path), "top level", {"schema": (None, None), **keys})
    if type(obj["schema"]) is not int or obj["schema"] != SCHEMA_VERSION:
        raise ScenarioError(f"schema: expected {SCHEMA_VERSION}, got {obj['schema']!r}")
    return obj


def _float_array(value, path, shape) -> np.ndarray:
    """value, the JSON array (of arrays, for two axes) of numbers at key path
    `path`, as a float array of the given shape; None in shape admits any
    length on that axis.  Booleans, strings, lists and objects are refused,
    not converted."""
    cells = np.array(value, dtype=object)
    if cells.ndim != len(shape) or any(w not in (None, got) for w, got in zip(shape, cells.shape)):
        raise ScenarioError(f"{path}: expected shape {shape}, got {cells.shape}")
    for flat, cell in enumerate(cells.flat):
        if type(cell) not in (int, float):  # exact JSON types: bool is refused
            where = "".join(f"[{i}]" for i in np.unravel_index(flat, cells.shape))
            raise ScenarioError(f"{path}{where}: wrong type {type(cell).__name__}")
    return cells.astype(float)


def _complex_array(section, path, shape) -> np.ndarray:
    """The complex array of a read section's re and im arrays."""
    re = _float_array(section["re"], f"{path}.re", shape)
    return coherence._complex(re, _float_array(section["im"], f"{path}.im", re.shape))


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
    _section(spec, "coherence", _COHERENCE)  # a route is chosen by its key, JSON null too
    routes = [k for k in _COHERENCE if k in spec]
    if len(routes) != 1:
        raise ScenarioError("coherence: exactly one of matrix / modes / random is required")
    route = routes[0]
    path = f"coherence.{route}"
    try:
        if route == "matrix":
            matrix = _section(spec[route], path, _RE_IM)
            return coherence.validate(_complex_array(matrix, path, (n, n)))
        if route == "modes":
            block = _section(spec[route], path, _MODES)
            modes = _complex_array(block, path, (n, None))
            pols = None
            if "polarizations" in spec[route]:
                pols_path = f"{path}.polarizations"
                pols_spec = _section(block["polarizations"], pols_path, _RE_IM)
                pols = coherence.PolarizationSet(_complex_array(pols_spec, pols_path, (n, 2)))
            return coherence.from_modes(coherence.ModeDecomposition(modes), pols)
        block = _section(spec[route], path, _RANDOM)
        if block["rank"] > n:  # refused before random_coherence draws an n x rank array
            raise ScenarioError(f"{path}.rank: {block['rank']} is above slits.n = {n}")
        seed = block["seed"] if seed_override is None else seed_override
        return coherence.random_coherence(n, block["rank"], seed)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def load_scenario(path, seed_override: int | None = None) -> Scenario:
    """Load and validate a scenario config.

    Each section is read against its key table: it holds exactly the keys
    the table names, each of its JSON type, so an unknown key, a missing
    required key and a wrong type are refused by key path.  JSON parse
    errors carry the source line and column.  seed_override replaces every
    seed in the config (random coherence and oracle).
    """
    obj = _read_config(path, _SCENARIO)
    slits_spec = _section(obj["slits"], "slits", _SLITS)
    geom_spec = _section(obj["geometry"], "geometry", _GEOMETRY)
    oracle_spec = _section(obj["oracle"], "oracle", _ORACLE)
    scale_w = _section(obj["outputs"], "outputs", _OUTPUTS)["scale_w"]
    n, samples = slits_spec["n"], geom_spec["samples"]
    if n < 2:
        raise ScenarioError(f"slits.n: need at least 2 slits, got {n}")
    if n * n > MAX_CELLS:
        raise ScenarioError(f"slits.n: {n} x {n} slits is over {MAX_CELLS} cells")
    if samples * n > MAX_CELLS:
        raise ScenarioError(f"geometry.samples: {samples} x {n} slits is over {MAX_CELLS} cells")
    intensities = _float_array(slits_spec["intensities"], "slits.intensities", (n,))
    phases = slits_spec["phases"]
    if phases is not None:
        phases = _float_array(phases, "slits.phases", (n,))
    try:
        slits = SlitArray(intensities=intensities, spacing=slits_spec["d"], phases=phases)
    except ValueError as exc:
        raise ScenarioError(f"slits: {exc}") from exc

    coh = _resolve_coherence(obj["coherence"], n, seed_override)

    try:
        geometry = ScreenGeometry(**geom_spec)
    except ValueError as exc:
        raise ScenarioError(f"geometry: {exc}") from exc

    enabled, realizations, oracle_seed = oracle_spec.values()
    if oracle_seed < 0:
        raise ScenarioError(f"oracle.seed: need a nonnegative integer, got {oracle_seed}")
    if enabled and realizations < MIN_REALIZATIONS:
        raise ScenarioError(f"oracle.realizations: need at least {MIN_REALIZATIONS} when enabled")
    if realizations > MAX_REALIZATIONS:
        raise ScenarioError(f"oracle.realizations: need at most {MAX_REALIZATIONS}")
    oracle_seed = oracle_seed if seed_override is None else seed_override
    return Scenario(slits, coh, geometry, enabled, realizations, oracle_seed, scale_w)


def load_matrix(path) -> coherence.CoherenceMatrix:
    """Load a coherence-matrix file as CoherenceMatrix.to_json writes it: a
    top level of exactly n, a JSON integer >= 2, and re and im, n x n arrays
    of JSON numbers."""
    obj = _section(_read_json(path), "top level", _MATRIX_FILE)
    if obj["n"] < 2:
        raise ScenarioError(f"top level.n: need at least 2 slits, got {obj['n']}")
    try:
        return coherence.validate(_complex_array(obj, "top level", (obj["n"], obj["n"])))
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
    """Load and validate a sweep config, {"schema": 1, "sweep": {...}}, whose
    sweep section holds at most these keys: JSON integers n_min (default 2),
    n_max (8), seeds (100) and seed (0), and rank_policy "full" (default),
    "rank1" or a positive integer up to n_max, also as a string of at most as
    many digits as n_max.  An unknown key at either level is refused by key
    path.  seed_override replaces the master seed.

    n_max is at most MAX_SWEEP_N = 512, so one instance's n x n matrix fits
    one stack of _STACK_ENTRIES entries, and the sweep holds at most
    MAX_SWEEP_INSTANCES = 2^16 instances, (n_max - n_min + 1) * seeds, at
    which a whole sweep over n 2 to 8 peaks near 89 MB resident."""
    spec = _read_config(path, {"sweep": (dict, _REQUIRED)})["sweep"]
    n_min, n_max, seeds, seed, policy = _section(spec, "sweep", _SWEEP).values()
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
