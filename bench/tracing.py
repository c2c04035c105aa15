"""Span tracer that wraps the program's public functions from outside.

Each wrapper is installed at the module attribute its callers look up, so a
call made from inside the program is traced exactly like one made by the
benchmark.  Spans are kept in memory and written out once, at the end of the
run.  Nothing is installed unless `Tracer.install()` is called.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from pathlib import Path

from duality_lab import analysis, cli, coherence, engine, measures, oracle, scenario

# Span names in report order.  `engine.pattern` is split by the geometry's
# phase model, because the two models take different code paths.
SPANS = (
    "scenario.load_scenario",
    "coherence.validate",
    "coherence.from_modes",
    "coherence.random_coherence",
    "engine.pattern.small_angle",
    "engine.pattern.exact",
    "engine.write_pattern_csv",
    "measures.duality_report",
    "analysis.load_pattern_csv",
    "analysis.extract_vc",
    "oracle.mc_pattern",
    "oracle.convergence_report",
    "cli.run_scenario",
    "cli.run_sweep",
    "cli.analyze",
    "cli.mc_validate",
)

# Work counts recorded by the wrappers, per item.
COUNTS = (
    "engine.pattern.cells",
    "engine.pattern.table_bytes_computed",
    "engine.write_pattern_csv.bytes",
    "analysis.load_pattern_csv.bytes",
    "oracle.mc_pattern.realizations",
)

# Bytes of the complex128 per-slit phase table the kernel computes per cell.
PHASE_TABLE_BYTES = 16


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _pattern_span(args, kwargs) -> str:
    return f"engine.pattern.{_arg(args, kwargs, 2, 'geometry').phase_model}"


def _pattern_counts(args, kwargs, result, add) -> None:
    cells = _arg(args, kwargs, 2, "geometry").samples * _arg(args, kwargs, 0, "slits").n
    add("engine.pattern.cells", cells)
    add("engine.pattern.table_bytes_computed", PHASE_TABLE_BYTES * cells)


def _csv_write_counts(args, kwargs, result, add) -> None:
    add("engine.write_pattern_csv.bytes", Path(_arg(args, kwargs, 1, "path")).stat().st_size)


def _csv_load_counts(args, kwargs, result, add) -> None:
    add("analysis.load_pattern_csv.bytes", Path(_arg(args, kwargs, 0, "path")).stat().st_size)


def _mc_counts(args, kwargs, result, add) -> None:
    add("oracle.mc_pattern.realizations", _arg(args, kwargs, 3, "realizations"))


# (owner, attribute, span name or namer, count hook) for every wrapper.  A
# function imported by name into another module is wrapped there too,
# because that module's callers look it up in their own namespace.
TARGETS = (
    (scenario, "load_scenario", "scenario.load_scenario", None),
    (cli, "load_scenario", "scenario.load_scenario", None),
    (coherence, "validate", "coherence.validate", None),
    (coherence, "from_modes", "coherence.from_modes", None),
    (coherence, "random_coherence", "coherence.random_coherence", None),
    (cli, "random_coherence", "coherence.random_coherence", None),
    (engine, "pattern", _pattern_span, _pattern_counts),
    (oracle, "pattern", _pattern_span, _pattern_counts),
    (engine, "write_pattern_csv", "engine.write_pattern_csv", _csv_write_counts),
    (measures, "duality_report", "measures.duality_report", None),
    (analysis, "load_pattern_csv", "analysis.load_pattern_csv", _csv_load_counts),
    (analysis, "extract_vc", "analysis.extract_vc", None),
    (oracle, "mc_pattern", "oracle.mc_pattern", _mc_counts),
    (oracle, "convergence_report", "oracle.convergence_report", None),
    (cli, "run_scenario", "cli.run_scenario", None),
    (cli, "run_sweep", "cli.run_sweep", None),
    (cli.analyze_cmd, "callback", "cli.analyze", None),
    (cli.mc_validate_cmd, "callback", "cli.mc_validate", None),
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span and
    the item it belongs to.  Set `item` before each item is run."""

    def __init__(self):
        self.item = None
        self.spans = []  # (name, start_ns, end_ns, parent index, item)
        self.errors = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []
        self._installed = []

    def _wrap(self, fn, name, count_hook):
        spans = self.spans
        stack = self._stack

        def add(key, value):
            self.counts[key] += value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)  # reserved, so children see this span's index
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[span_name] += 1
                raise
            finally:
                # a tuple of plain values is not tracked by the garbage
                # collector, so a long trace does not slow its passes
                spans[index] = (span_name, start, time.perf_counter_ns(), parent, self.item)
                stack.pop()
            if count_hook is not None:
                count_hook(args, kwargs, result, add)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, count_hook in TARGETS:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count_hook))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, items: int) -> dict[str, float]:
        """`.calls` per item, `.self_ms` (median per item, over the items that
        made the call) and `.errors` for every span; work counts per item.

        Self time is the span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = defaultdict(lambda: defaultdict(int))
        calls = defaultdict(int)
        for (name, start, end, parent, item), children in zip(self.spans, child_ns):
            self_ns[name][item] += end - start - children
            calls[name] += 1
        out = {}
        for name in SPANS:
            per_item = list(self_ns[name].values())
            out[f"{name}.calls"] = calls[name] / items
            out[f"{name}.self_ms"] = statistics.median(per_item) / 1e6 if per_item else 0.0
            out[f"{name}.errors"] = float(self.errors[name])
        for key in COUNTS:
            out[key] = self.counts[key] / items
        return out

    def write(self, path) -> None:
        """Spans as CSV: name, start_ns, end_ns, parent index, item."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("name,start_ns,end_ns,parent,item\n")
            f.writelines(f"{n},{s},{e},{p},{i}\n" for n, s, e, p, i in self.spans)
