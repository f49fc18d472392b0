"""Span tracing of framescale's public functions, installed from outside.

A ``Tracer`` wraps each public function named in ``LAYERS`` in every
framescale namespace that holds it (``experiments`` imports ``tyler_iterate``
by name, so patching ``framescale.tyler`` alone would miss its calls), and
wraps classes at ``__init__``.  It also wraps ``numpy.linalg.{eigh, eigvalsh,
svd, inv}``; their calls add to the counters of the innermost open span.

A span is the list ``[name, unit, parent, start_ns, end_ns, counts, info]``:
``parent`` is the index of the enclosing span (-1 at the top), ``counts`` the
numpy.linalg calls made directly inside it (see ``COUNTS``) and ``info`` what
was read from the call's result (iterations, convergence, subsets checked,
CSV bytes).  Spans stay in memory until the run ends.  Wrappers record only
while ``Tracer.unit`` is set, so the benchmark's own output checks, which call
``error_report``, leave no spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "frame": ("Frame", "error_report", "op_norm_symmetric"),
    "scaling": ("solve_scaling", "flip_flop_step", "gradient_flow_step",
                "ScalingPair"),
    "tyler": ("tyler_iterate", "ShapePD", "relative_op_error"),
    "sampling": ("sample_sphere_frame", "normalize_columns"),
    "expansion": ("infty_expansion_exact", "infty_expansion_sampled",
                  "pseudorandom_check"),
    "experiments": ("run_sample_complexity", "run_expansion_survey"),
}
LINALG = ("eigh", "eigvalsh", "svd", "inv")
# per-span counters: one call count per LINALG function, then the number of
# matrices eigvalsh decomposed (the product of a batch's leading dimensions)
COUNTS = LINALG + ("eigvalsh_matrices",)
# spectral decompositions, as counted by the decomps_per_iteration metrics
_DECOMPS = tuple(COUNTS.index(f) for f in ("eigh", "eigvalsh", "svd"))
_EIG_MATRICES = COUNTS.index("eigvalsh_matrices")
_MARK = "__perfbench_traced__"

_SOLVER_INFO = lambda r: {"iterations": r.iterations, "converged": int(r.converged)}
_SUBSETS_INFO = lambda r: {"subsets_checked": r.subsets_checked}
_CSV_INFO = lambda r: {"csv_bytes": len(r.csv_text.encode())}
_INFO = {
    "scaling.solve_scaling": _SOLVER_INFO,
    "tyler.tyler_iterate": _SOLVER_INFO,
    "expansion.infty_expansion_exact": _SUBSETS_INFO,
    "expansion.infty_expansion_sampled": _SUBSETS_INFO,
    "expansion.pseudorandom_check": _SUBSETS_INFO,
    "experiments.run_sample_complexity": _CSV_INFO,
    "experiments.run_expansion_survey": _CSV_INFO,
}

_EXPANSION = ("expansion.infty_expansion_exact", "expansion.pseudorandom_check",
              "expansion.infty_expansion_sampled")
_RUNNERS = ("experiments.run_sample_complexity", "experiments.run_expansion_survey")

# (metric, unit); the names and units BENCHMARK.json lists under per_layer
PER_LAYER = (
    ("frame.Frame.calls", "count"),
    ("frame.Frame.self_ms", "ms"),
    ("frame.error_report.calls", "count"),
    ("frame.error_report.self_ms", "ms"),
    ("frame.op_norm_symmetric.calls", "count"),
    ("scaling.solve_scaling.iterations", "count"),
    ("scaling.solve_scaling.self_ms", "ms"),
    ("scaling.flip_flop_step.calls", "count"),
    ("scaling.flip_flop_step.self_ms", "ms"),
    ("scaling.gradient_flow_step.calls", "count"),
    ("scaling.gradient_flow_step.self_ms", "ms"),
    ("scaling.ScalingPair.calls", "count"),
    ("scaling.ScalingPair.self_ms", "ms"),
    ("scaling.decomps_per_iteration", "count"),
    ("scaling.converged_ratio", "ratio"),
    ("tyler.tyler_iterate.calls", "count"),
    ("tyler.tyler_iterate.self_ms", "ms"),
    ("tyler.tyler_iterate.iterations", "count"),
    ("tyler.decomps_per_iteration", "count"),
    ("tyler.ShapePD.calls", "count"),
    ("tyler.ShapePD.self_ms", "ms"),
    ("tyler.relative_op_error.self_ms", "ms"),
    ("tyler.converged_ratio", "ratio"),
    ("sampling.sample_sphere_frame.self_ms", "ms"),
    ("sampling.normalize_columns.self_ms", "ms"),
    ("expansion.infty_expansion_exact.self_ms", "ms"),
    ("expansion.pseudorandom_check.self_ms", "ms"),
    ("expansion.infty_expansion_sampled.self_ms", "ms"),
    ("expansion.subsets_checked", "count"),
    ("expansion.subsets_per_s", "1/s"),
    ("expansion.eig_matrices", "count"),
    ("experiments.run_sample_complexity.self_ms", "ms"),
    ("experiments.run_expansion_survey.self_ms", "ms"),
    ("experiments.csv_bytes", "bytes"),
    ("trace.overhead", "ratio"),
)


def _framescale_modules():
    return [mod for name, mod in sys.modules.items()
            if name == "framescale" or name.startswith("framescale.")]


def installed() -> bool:
    """True when any tracing wrapper is in place."""
    for mod in _framescale_modules():
        for names in LAYERS.values():
            for attr in names:
                obj = getattr(mod, attr, None)
                if isinstance(obj, type):
                    obj = obj.__init__
                if getattr(obj, _MARK, False):
                    return True
    return any(getattr(getattr(np.linalg, f), _MARK, False) for f in LINALG)


class Tracer:
    """Records spans of framescale's public calls while installed.

    Use as a context manager: entering installs the wrappers and leaving
    restores every original.  Set ``unit`` to the unit index (or -1 for
    set-up) to record, and back to None to pause.
    """

    def __init__(self):
        self.spans = []
        self.unit = None
        self._open = []
        self._restore = []

    def __enter__(self):
        import framescale  # noqa: F401  (loads every layer module)
        modules = _framescale_modules()
        for layer, names in LAYERS.items():
            home = sys.modules[f"framescale.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                name = f"{layer}.{attr}"
                if isinstance(original, type):
                    self._patch(original, "__init__",
                                self._span(name, original.__init__))
                    continue
                wrapper = self._span(name, original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapper)
        for attr in LINALG:
            self._patch(np.linalg, attr, self._counter(attr, getattr(np.linalg, attr)))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        self.unit = None
        return False

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, name, fn):
        spans, open_ = self.spans, self._open
        info = _INFO.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.unit is None:
                return fn(*args, **kwargs)
            span = [name, self.unit, open_[-1] if open_ else -1, 0, 0, None, None]
            open_.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                open_.pop()
            if info is not None:
                span[6] = info(result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _counter(self, attr, fn):
        spans, open_ = self.spans, self._open
        slot = COUNTS.index(attr)
        batched = attr == "eigvalsh"

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if open_:
                span = spans[open_[-1]]
                if span[5] is None:
                    span[5] = [0] * len(COUNTS)
                span[5][slot] += 1
                if batched:
                    span[5][_EIG_MATRICES] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)

        setattr(counted, _MARK, True)
        return counted


def totals(spans):
    """Totals over the spans of timed units (unit >= 0), grouped by name.

    Keys of each group: calls, self_ns (duration minus the time
    child spans cover), subtree_decomps (eigh + eigvalsh + svd calls in the
    span and its descendants), eig_matrices (eigvalsh matrices directly in
    the span), and every key the span's result info carries.
    """
    child_ns = [0] * len(spans)
    subtree = [0] * len(spans)
    # children are appended after their parent, so a reverse sweep finishes
    # every child before its parent
    for i in range(len(spans) - 1, -1, -1):
        _, _, parent, start, end, counts, _ = spans[i]
        if counts is not None:
            subtree[i] += sum(counts[k] for k in _DECOMPS)
        if parent >= 0:
            child_ns[parent] += end - start
            subtree[parent] += subtree[i]
    out = defaultdict(lambda: defaultdict(int))
    for i, (name, unit, _, start, end, counts, info) in enumerate(spans):
        if unit < 0:
            continue
        t = out[name]
        t["calls"] += 1
        t["self_ns"] += end - start - child_ns[i]
        t["subtree_decomps"] += subtree[i]
        if counts is not None:
            t["eig_matrices"] += counts[_EIG_MATRICES]
        for key, value in (info or {}).items():
            t[key] += value
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, units: int, overhead: float) -> dict:
    """Every PER_LAYER metric, per unit unless its name says otherwise.

    A metric of a function the workload never calls reads 0.
    """
    t = totals(spans)

    def get(name, key):
        return t[name][key] if name in t else 0

    values = {"trace.overhead": overhead}
    for name, unit in PER_LAYER:
        func, _, quantity = name.rpartition(".")
        if quantity in ("calls", "iterations"):
            values[name] = get(func, quantity) / units
        elif quantity == "self_ms":
            values[name] = get(func, "self_ns") / 1e6 / units
    for layer, solver in (("scaling", "scaling.solve_scaling"),
                          ("tyler", "tyler.tyler_iterate")):
        values[f"{layer}.decomps_per_iteration"] = _ratio(
            get(solver, "subtree_decomps"), get(solver, "iterations"))
        values[f"{layer}.converged_ratio"] = _ratio(
            get(solver, "converged"), get(solver, "calls"))
    subsets = sum(get(f, "subsets_checked") for f in _EXPANSION)
    values["expansion.subsets_checked"] = subsets / units
    values["expansion.subsets_per_s"] = _ratio(
        subsets, sum(get(f, "self_ns") for f in _EXPANSION) / 1e9)
    values["expansion.eig_matrices"] = sum(
        get(f, "eig_matrices") for f in _EXPANSION) / units
    values["experiments.csv_bytes"] = sum(get(f, "csv_bytes") for f in _RUNNERS) / units
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def write_spans(path, spans, meta: dict) -> None:
    """Write the spans, with start and end relative to the first span, as gzip JSON."""
    origin = spans[0][3] if spans else 0
    rows = [[name, unit, parent, start - origin, end - origin, counts, info]
            for name, unit, parent, start, end, counts, info in spans]
    payload = {"meta": meta, "fields": ["name", "unit", "parent", "start_ns",
                                        "end_ns", "counts", "info"],
               "counts": list(COUNTS), "spans": rows}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
