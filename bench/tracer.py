"""In-memory span tracer that wraps the public functions of bfdesign.

A span records its name, start, end, parent span and case id.  Spans are
appended to flat arrays while the traced code runs and are written out once,
at the end, as a NumPy ``.npz`` file.  A layer is one bfdesign module; its
self time is the time of its spans minus the part their child spans cover.

Modules bind imported names (``from .predictive import
joint_predictive_matrix``), so replacing the attribute on the home module is
not enough: ``Instrumentation`` rebinds every name in every ``bfdesign``
module that refers to a wrapped function, and restores them all on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

import numpy as np

# Modules whose public functions are wrapped, i.e. the layers of bfdesign.
LAYERS = (
    "special",
    "priors",
    "predictive",
    "bayesfactor",
    "operating",
    "calibration",
    "simon",
    "config",
    "cli",
)

# scipy.stats.binom methods the Simon search may call.
_BINOM_METHODS = ("pmf", "cdf", "sf", "logpmf", "logcdf", "logsf", "ppf", "isf")


class Tracer:
    """Span store plus named counters for one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.case_id = -1
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Return fn wrapped in a span; optional hooks see args and result."""
        nid = self.name_id(name)
        clock = time.perf_counter
        names, parents, cases = self.name, self.parent, self.case
        starts, ends, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            cases.append(self.case_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "case": np.frombuffer(self.case, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        save_spans(path, self.names, self.spans(), self.counters)


def save_spans(path: str, names: list, arrays: dict, counters: dict) -> None:
    """Write every span and counter to one .npz file."""
    np.savez(
        path,
        names=np.array(names, dtype=str),
        counters=np.array(json.dumps(dict(counters))),
        **arrays,
    )


def load_spans(path: str) -> tuple[list[str], dict[str, np.ndarray], Counter]:
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        arrays = {k: data[k] for k in ("name", "parent", "case", "start", "end")}
        counters = Counter(json.loads(str(data["counters"])))
    return names, arrays, counters


def merge_spans(parts):
    """Concatenate (names, arrays, counters) parts into one span table."""
    ids: dict[str, int] = {}
    cols = {k: [] for k in ("name", "parent", "case", "start", "end")}
    counters: Counter = Counter()
    offset = 0
    for part_names, arrays, part_counters in parts:
        remap = np.array(
            [ids.setdefault(n, len(ids)) for n in part_names], dtype=np.int32
        )
        cols["name"].append(remap[arrays["name"]])
        parent = arrays["parent"].copy()
        parent[parent >= 0] += offset
        cols["parent"].append(parent)
        for key in ("case", "start", "end"):
            cols[key].append(arrays[key])
        counters.update(part_counters)
        offset += len(arrays["name"])
    return list(ids), {k: np.concatenate(v) for k, v in cols.items()}, counters


def self_times(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Children of one span never overlap in single-threaded code, so the part
    of the parent they cover is the sum of their durations.
    """
    dur = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered


def summarize(names: list[str], arrays: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    dur = arrays["end"] - arrays["start"]
    self_s = self_times(arrays)
    size = len(names)
    calls = np.bincount(arrays["name"], minlength=size)
    total = np.bincount(arrays["name"], weights=dur, minlength=size)
    own = np.bincount(arrays["name"], weights=self_s, minlength=size)
    return {
        n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        for i, n in enumerate(names)
    }


def cache_counters() -> dict:
    """Hits and misses of the joint-matrix cache, while that cache exists."""
    predictive = sys.modules.get("bfdesign.predictive")
    info = getattr(getattr(predictive, "_joint_predictive_matrix", None), "cache_info", None)
    if info is None:
        return {}
    stats = info()
    return {"predictive.cache_hits": stats.hits, "predictive.cache_misses": stats.misses}


class _BinomProxy:
    """Stands in for scipy.stats.binom, counting calls and values evaluated."""

    def __init__(self, binom, tracer: Tracer) -> None:
        self._binom = binom
        for method in _BINOM_METHODS:
            target = getattr(binom, method, None)
            if target is None:
                continue

            def count(args, kwargs):
                tracer.counters["simon.binom_calls"] += 1
                shapes = [np.asarray(a) for a in args] + [
                    np.asarray(v) for v in kwargs.values()
                ]
                tracer.counters["simon.binom_values"] += np.broadcast(*shapes).size

            setattr(self, method, tracer.wrap(f"simon.binom.{method}", target, count))

    def __getattr__(self, attr):
        return getattr(self._binom, attr)


class Instrumentation:
    """Context manager that wraps bfdesign's public functions in spans.

    Every wrapped name is rebound in each loaded ``bfdesign`` module that
    refers to the original object, and restored on exit.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: list[tuple[object, str, object]] = []
        self._rates_n2: Optional[set] = None

    def _modules(self):
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "bfdesign" or name.startswith("bfdesign."))
        ]

    def _rebind(self, original: object, replacement: object) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _hooks(self, qualified: str):
        """Extra counters measured at a few named boundaries."""
        t = self.tracer
        if qualified == "calibration.optimal_calibrate":

            def before(args, kwargs):
                self._rates_n2 = set()

            def after(result, args, kwargs):
                cons = kwargs.get("cons", args[0] if args else None)
                columns = cons.n_max - cons.n_min
                t.counters["calibration.columns_pruned"] += columns - len(self._rates_n2)
                self._rates_n2 = None

            return before, after
        if qualified == "predictive.joint_predictive_matrix":

            def after(result, args, kwargs):
                t.counters["predictive.joint_cells"] += int(np.size(result))

            return None, after
        return None, None

    def __enter__(self) -> "Instrumentation":
        t = self.tracer
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"bfdesign.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                qualified = f"{layer}.{attr}"
                before, after = self._hooks(qualified)
                self._rebind(fn, t.wrap(qualified, fn, before, after))

        calibration = sys.modules.get("bfdesign.calibration")
        grid = getattr(calibration, "DesignGrid", None)
        original = vars(grid).get("rates") if grid is not None else None
        if original is not None:

            def visit(args, kwargs):
                if self._rates_n2 is not None:
                    self._rates_n2.add(kwargs.get("n2", args[2] if len(args) > 2 else None))

            self._restore.append((grid, "rates", original))
            grid.rates = t.wrap("calibration.DesignGrid.rates", original, visit)

        mpmath = sys.modules.get("mpmath")
        if mpmath is not None:
            self._restore.append((mpmath, "betainc", mpmath.betainc))
            mpmath.betainc = t.wrap("special.mpmath.betainc", mpmath.betainc)

        simon = sys.modules.get("bfdesign.simon")
        binom = getattr(simon, "binom", None)
        if binom is not None:
            self._rebind(binom, _BinomProxy(binom, t))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
