"""Outside-in span tracer for the avgrl package.

The tracer wraps every public function of the layer modules (``cli``,
``learner``, ``metrics``, ``oracles``, ``mdp``, ``features``, ``envs``) and
records one span per call: id, parent id, name, start and end in
nanoseconds.  A function is replaced by identity in every ``avgrl.*``
namespace that holds it, because several modules import helpers by name
(``metrics``, ``features`` and ``oracles`` all bind
``stationary_distribution``) and ``learner.run`` imports
``exact_metrics_row`` lazily at call time.  The originals are restored on
exit, so nothing under ``src/`` changes and an untraced call runs the
original code.

Spans stay in memory; ``summarize`` reduces them to per-function and
per-layer figures.  Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

LAYERS = ("cli", "learner", "metrics", "oracles", "mdp", "features", "envs")
ROW_SPAN = "metrics.exact_metrics_row"  # calls inside it are counted as ``calls_in_row``
_MARK = "__perfbench_span__"


def _avgrl_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "avgrl" or name.startswith("avgrl."))]


def public_functions() -> dict[int, tuple[object, str]]:
    """id(function) -> (function, "layer.name") for each layer's public functions."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"avgrl.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                found[id(obj)] = (obj, f"{layer}.{attr}")
    return found


def leftover_wrappers() -> list[str]:
    """Names of tracer wrappers still bound in any avgrl namespace."""
    return [f"{mod.__name__}.{attr}" for mod in _avgrl_modules()
            for attr, obj in vars(mod).items() if hasattr(obj, _MARK)]


class Tracer:
    """Context manager: wraps on enter, restores on exit, keeps spans."""

    def __init__(self):
        self.spans: list = []  # (span_id, parent_id, name, start_ns, end_ns)
        self._stack: list[int] = []
        self._patched: list = []  # (namespace, attr, original)

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end)

        setattr(wrapper, _MARK, name)
        return wrapper

    def __enter__(self) -> "Tracer":
        targets = public_functions()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for mod in _avgrl_modules():
            for attr, obj in list(vars(mod).items()):
                key = id(obj)
                if key in wrappers and targets[key][0] is obj:
                    setattr(mod, attr, wrappers[key])
                    self._patched.append((mod, attr, obj))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def summarize(spans: list) -> dict:
    """Per-function calls, total, self and latency percentiles; per-layer self.

    ``calls_in_row`` counts the calls made inside a ``ROW_SPAN`` span (span
    ids grow with start time, so a parent's id precedes its children's).
    """
    child_ns = [0] * len(spans)
    inside = [False] * len(spans)
    for span_id, parent, name, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            inside[span_id] = inside[parent] or spans[parent][2] == ROW_SPAN
    funcs: dict[str, dict] = {}
    for span_id, _, name, start, end in spans:
        entry = funcs.setdefault(name, {"calls": 0, "calls_in_row": 0, "total_ns": 0,
                                        "self_ns": 0, "_d": []})
        entry["calls"] += 1
        entry["calls_in_row"] += inside[span_id]
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[span_id]
        entry["_d"].append(end - start)
    layers = {layer: 0 for layer in LAYERS}
    for name, entry in funcs.items():
        durations = sorted(entry.pop("_d"))
        entry["p50_ns"] = _percentile(durations, 0.50)
        entry["p99_ns"] = _percentile(durations, 0.99)
        layers[name.split(".", 1)[0]] += entry["self_ns"]
    root_ns = sum(end - start for _, parent, _, start, end in spans if parent < 0)
    return {"functions": funcs, "layer_self_ns": layers, "root_ns": root_ns}
