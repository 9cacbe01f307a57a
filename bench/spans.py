"""Span tracing of pipgeom's layers from outside the package.

`Tracer.installed()` replaces the public entry points listed in
`LAYERS` with wrappers that record one span per call: name, parent
span, op id, start and end.  A name imported elsewhere by value (for
example `ehrhart.count_total`, `cli.is_pseudointegral`) is rebound in
every pipgeom module that holds it, and everything is restored on exit.
Spans stay in memory; `write` saves them when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from checks import dilate_columns

# Entry points per layer: only those a per-layer metric reads.  Helpers
# called once per candidate or per edge (vieta.tuple_b_value,
# counting.segment_lattice_points, ...) are left unwrapped: wrapping them
# would multiply the overhead, and their time belongs to the caller's self
# time.  So is counting.count_interior; the count_total and count_boundary
# calls it makes are children of its caller.  `exact` has no boundary
# worth wrapping; its cost shows in the self times of polygon and counting.
LAYERS = {
    "cli": ("main",),
    "polygon": ("hull", "RationalPolygon.from_json_dict"),
    "counting": ("count_total", "count_boundary"),
    "ehrhart": ("reconstruct_quasipolynomial", "is_pseudointegral"),
    "vieta": ("solution_b_sweep", "verify_general_bound", "jump_forest", "enumerate_reduced"),
    "constructions": ("t_xyz", "construct_pip", "reflexive_catalog"),
}


class Tracer:
    """Records spans of wrapped calls; single-threaded, one stack."""

    def __init__(self) -> None:
        # span: [name, parent index, op id, start ns, end ns, args, result]
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, 0, 0, args, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                span[6] = fn(*args, **kwargs)
                return span[6]
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point in LAYERS for the duration of the block."""
        layers = {layer: importlib.import_module(f"pipgeom.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "pipgeom" or n.startswith("pipgeom.")]
        undo = []
        try:
            for layer, names in LAYERS.items():
                mod = layers[layer]
                for qual in names:
                    owner_name, _, attr = qual.rpartition(".")
                    span_name = f"{layer}.{attr}"
                    if owner_name:  # classmethod
                        owner = getattr(mod, owner_name)
                        original = owner.__dict__[attr]
                        undo.append((owner, attr, original))
                        setattr(owner, attr, classmethod(self._wrap(span_name, original.__func__)))
                        continue
                    original = getattr(mod, attr)
                    wrapper = self._wrap(span_name, original)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                undo.append((m, key, original))
                                setattr(m, key, wrapper)
            yield self
        finally:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans

    @staticmethod
    def write(path, passes: list[list[list]]) -> None:
        """One JSON line per span: pass, id, parent id, op, name, start_ns, end_ns."""
        with gzip.open(path, "wt") as fh:
            for n, spans in enumerate(passes):
                for k, (name, parent, op, start, end, _, _) in enumerate(spans):
                    fh.write(json.dumps([n, k, parent, op, name, start, end]) + "\n")


def _columns(args) -> int:
    P, t = args[0], args[1] if len(args) > 1 else 1
    xmin, xmax, _, _ = P.bounding_box()
    return dilate_columns(xmin, xmax, t)


# span name -> input size of one call (columns, residues, candidates, nodes)
SIZES = {
    "counting.count_total": lambda args, res: _columns(args),
    "ehrhart.reconstruct_quasipolynomial": lambda args, res: args[0].denominator,
    "vieta.solution_b_sweep": lambda args, res: math.comb(args[0] + 2, 3),
    "vieta.verify_general_bound": lambda args, res: math.comb(args[1] + args[0] - 1, args[0]),
    "vieta.jump_forest": lambda args, res: len(res),
}


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive ns, self ns and input size.

    Self time is a span's duration minus the time its direct children
    cover.  `by_parent` counts calls per (name, parent name), and
    `layer_ns` is each layer's time outside nested calls of the same layer.
    """
    child_ns = [0] * len(spans)
    for name, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "size": 0})
    by_parent: dict = defaultdict(int)
    layer_ns: dict = defaultdict(int)
    for k, (name, parent, _, start, end, args, result) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["ns"] += end - start
        s["self_ns"] += end - start - child_ns[k]
        if name in SIZES:
            s["size"] += SIZES[name](args, result)
        parent_name = spans[parent][0] if parent >= 0 else ""
        by_parent[name, parent_name] += 1
        layer = name.partition(".")[0]
        if parent_name.partition(".")[0] != layer:
            layer_ns[layer] += end - start
    return {"stats": dict(stats), "by_parent": dict(by_parent), "layer_ns": dict(layer_ns)}


_EMPTY = {"calls": 0, "ns": 0, "self_ns": 0, "size": 0}


def _counts(summary: dict) -> dict[str, float]:
    st = lambda name: summary["stats"].get(name, _EMPTY)  # noqa: E731
    residues = st("ehrhart.reconstruct_quasipolynomial")["size"]
    fit_calls = summary["by_parent"].get(("counting.count_total", "ehrhart.reconstruct_quasipolynomial"), 0)
    return {
        "cli.main.calls": st("cli.main")["calls"],
        "polygon.hull.calls": st("polygon.hull")["calls"],
        "counting.count_total.calls": st("counting.count_total")["calls"],
        "counting.count_total.columns": st("counting.count_total")["size"],
        "counting.count_boundary.calls": st("counting.count_boundary")["calls"],
        "ehrhart.reconstruct_quasipolynomial.calls": st("ehrhart.reconstruct_quasipolynomial")["calls"],
        "ehrhart.reconstruct_quasipolynomial.residues": residues,
        "ehrhart.count_calls_per_residue": fit_calls / residues if residues else 0.0,
        "vieta.solution_b_sweep.candidates": st("vieta.solution_b_sweep")["size"],
        "vieta.verify_general_bound.candidates": st("vieta.verify_general_bound")["size"],
        "vieta.jump_forest.nodes": st("vieta.jump_forest")["size"],
    }


def _times(summary: dict) -> dict[str, float]:
    st = lambda name: summary["stats"].get(name, _EMPTY)  # noqa: E731
    ms = lambda ns: ns / 1e6  # noqa: E731
    per = lambda ns, n, scale: ns / scale / n if n else 0.0  # noqa: E731
    total, boundary = st("counting.count_total"), st("counting.count_boundary")
    return {
        "cli.main.self_ms": ms(st("cli.main")["self_ns"]),
        "polygon.from_json_dict.self_ms": ms(st("polygon.from_json_dict")["self_ns"]),
        "polygon.hull.ms": ms(st("polygon.hull")["ns"]),
        "counting.count_total.self_ms": ms(total["self_ns"]),
        "counting.count_total.us_per_call": per(total["self_ns"], total["calls"], 1e3),
        "counting.count_total.ns_per_column": per(total["self_ns"], total["size"], 1),
        "counting.count_boundary.self_ms": ms(boundary["self_ns"]),
        "counting.count_boundary.us_per_call": per(boundary["self_ns"], boundary["calls"], 1e3),
        "ehrhart.reconstruct_quasipolynomial.self_ms": ms(st("ehrhart.reconstruct_quasipolynomial")["self_ns"]),
        "ehrhart.is_pseudointegral.self_ms": ms(st("ehrhart.is_pseudointegral")["self_ns"]),
        "vieta.solution_b_sweep.ms": ms(st("vieta.solution_b_sweep")["ns"]),
        "vieta.verify_general_bound.ms": ms(st("vieta.verify_general_bound")["ns"]),
        "vieta.jump_forest.ms": ms(st("vieta.jump_forest")["ns"]),
        "vieta.enumerate_reduced.ms": ms(st("vieta.enumerate_reduced")["ns"]),
    }


def layer_metrics(passes: list[dict], setup: dict) -> tuple[dict[str, float], bool]:
    """Per-layer metrics of one traced run, and whether counts repeated.

    `passes` are summaries of identical traced passes: counts come from
    the first (they must match in all), times are medians over passes.
    `setup` summarizes the traced input generation.
    """
    counts = [_counts(s) for s in passes]
    times = [_times(s) for s in passes]
    out = dict(counts[0])
    out.update({k: statistics.median(t[k] for t in times) for k in times[0]})
    out["constructions.ms"] = setup["layer_ns"].get("constructions", 0) / 1e6
    return out, all(c == counts[0] for c in counts)


_UNITS = (
    (".calls", "count"),
    (".columns", "count"),
    (".residues", "count"),
    (".candidates", "count"),
    (".nodes", "count"),
    ("ms", "ms"),
    (".us_per_call", "us"),
    (".ns_per_column", "ns"),
    (".count_calls_per_residue", "calls/residue"),
    (".overhead_ratio", "ratio"),
)


def unit(metric: str) -> str:
    return next(u for suffix, u in _UNITS if metric.endswith(suffix))
