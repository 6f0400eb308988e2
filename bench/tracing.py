"""Span recorder for the traced run.

Every traced function is rebound, in each wordgraphs module that binds it,
to a wrapper that records (name, start, end, parent, op, error, outcome).
So a call that crosses modules, such as build_expression calling
simulate_marking through cliquewidth's namespace, becomes a child span.
Spans stay in memory until the run ends. Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import time
import types
from typing import Any, Callable

MODULES = ("cli", "graphs", "words", "locality", "representability", "cliquewidth")

# defining module -> traced public functions; outcome extractors feed the ratios
TRACED: dict[str, dict[str, Callable[[Any], Any] | None]] = {
    "cli": {"main": None, "build_parser": None},
    "graphs": {"graph_from_text": None, "is_threshold": None},
    "words": {"graph_of_word": None},
    "locality": {
        "locality": None,
        "is_k_local": bool,
        "simulate_marking": None,
        "max_block_count": None,
    },
    "representability": {"decide_membership": lambda result: bool(result[0])},
    "cliquewidth": {
        "build_expression": None,
        "eval_expression": None,
        "labels_used": None,
        "serialize": None,
        "parse": None,
    },
}

STATS = ("calls", "self_s", "total_s", "errors")


def _modules() -> dict[str, types.ModuleType]:
    # the package re-exports the function `locality` as wordgraphs.locality,
    # so the modules are looked up by their full names
    return {name: importlib.import_module(f"wordgraphs.{name}") for name in MODULES}


def _without_self_calls(fn: types.FunctionType) -> types.FunctionType:
    """A copy of fn whose recursive calls bypass the wrapper.

    A function that recurses through its module-level name would otherwise
    go through the wrapper at every level: one span per level, and twice the
    stack depth, which would move where RecursionError strikes.
    """
    if fn.__name__ not in fn.__code__.co_names:
        return fn
    scope = dict(fn.__globals__)
    copy = types.FunctionType(fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__)
    copy.__kwdefaults__ = fn.__kwdefaults__
    scope[fn.__name__] = copy
    return copy


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[types.ModuleType, str, Any]] = []

    def _wrap(self, name: str, fn, outcome) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        target = _without_self_calls(fn)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = target(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, start, clock(), parent, self.op, True, None)
                stack.pop()
                raise
            spans[sid] = (name, start, clock(), parent, self.op, False, outcome(result) if outcome else None)
            stack.pop()
            return result

        return traced

    def install(self) -> None:
        modules = _modules()
        for home, functions in TRACED.items():
            for fname, outcome in functions.items():
                original = getattr(modules[home], fname)
                wrapper = self._wrap(f"{home}.{fname}", original, outcome)
                for module in modules.values():
                    if getattr(module, fname, None) is original:
                        self._undo.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._undo):
            setattr(module, fname, original)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls, self and total seconds, errors, and extras."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per: dict[str, dict[str, Any]] = {
            f"{home}.{fname}": {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0, "durations": [], "outcomes": []}
            for home, functions in TRACED.items()
            for fname in functions
        }
        for sid, (name, start, end, parent, op, error, outcome) in enumerate(self.spans):
            row = per[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
            row["errors"] += error
            row["durations"].append(end - start)
            if outcome is not None:
                row["outcomes"].append(outcome)
        metrics: dict[str, tuple[float, str]] = {}
        for name, row in per.items():
            for stat in STATS:
                metrics[f"{name}.{stat}"] = (row[stat], "s" if stat.endswith("_s") else "count")
        decide = per["representability.decide_membership"]
        p50, p90 = percentiles(decide["durations"])
        metrics["representability.decide_membership.p50_ms"] = (p50 * 1000, "ms")
        metrics["representability.decide_membership.p90_ms"] = (p90 * 1000, "ms")
        metrics["representability.decide_membership.member_ratio"] = (_ratio(decide["outcomes"]), "ratio")
        metrics["locality.is_k_local.accept_ratio"] = (_ratio(per["locality.is_k_local"]["outcomes"]), "ratio")
        return metrics

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for sid, (name, start, end, parent, op, error, outcome) in enumerate(self.spans):
                handle.write(json.dumps([sid, name, start, end, parent, op, error, outcome]) + "\n")


def _ratio(outcomes: list) -> float:
    return sum(outcomes) / len(outcomes) if outcomes else 0.0


def percentiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, interpolated within the sample."""
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]
