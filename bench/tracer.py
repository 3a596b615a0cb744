"""In-memory span tracer that wraps kernelfield's public functions from outside.

The tracer patches module attributes, including every alias a module
imported by name (``eig_symmetric`` lives in ``spectral`` but is also bound
in ``stability``, ``diagnostics``, ``experiments`` and ``cli``), and the
``experiments.RUNNERS`` table that ``cli reproduce`` dispatches through.
Spans record layer, function, start, end, parent span and op id; they stay
in memory until the run writes them out. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Traced functions per layer (module). Self time of a span is its duration
# minus the durations of its direct children, which run sequentially.
TRACED = {
    "graph": ("build_path", "weaken_edge", "build_river_channel", "build_trunk_roots",
              "from_json", "laplacian"),
    "spectral": ("eig_symmetric",),
    "field": ("build_coupling", "solve_fixed_point"),
    "stability": ("stability_report",),
    "diagnostics": ("diagnostics_record",),
    "experiments": ("run_exp1", "run_exp2", "run_exp3", "run_exp4", "run_exp5",
                    "run_exp6", "run_exp6b", "run_exp7", "run_sweep", "sweep_graph"),
    "cli": ("main",),
}

GRAPH_BUILDERS = frozenset(TRACED["graph"]) - {"laplacian"}


def _eig_attrs(args, result):
    mat = np.asarray(args[0])
    return {"dense": bool(np.any(mat[~np.eye(mat.shape[0], dtype=bool)] != 0))}


def _solve_attrs(args, result):
    return {"iterations": int(result.iterations)}


# Attributes computed from a call's arguments and result, outside the span.
ATTRS = {"eig_symmetric": _eig_attrs, "solve_fixed_point": _solve_attrs}


class Tracer:
    """Wraps the TRACED functions while installed and records one span per call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            span = {"op": self.op_id, "id": span_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "layer": layer, "func": name}
            self.spans.append(span)
            self._stack.append(span_id)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return traced

    def install(self):
        """Patch every binding of a traced function in the loaded kernelfield modules."""
        if self._patches:
            return
        wrappers = {}
        for layer, names in TRACED.items():
            mod = sys.modules.get(f"kernelfield.{layer}")
            if mod is None:
                continue
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self._wrap(layer, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "kernelfield" and not modname.startswith("kernelfield."):
                continue
            for key, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patch(mod, key, val, wrappers[id(val)])
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if id(dval) in wrappers:
                            self._patch(val, dkey, dval, wrappers[id(dval)])

    def _patch(self, container, key, original, wrapper):
        self._patches.append((container, key, original))
        if isinstance(container, dict):
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Seconds of each span not covered by its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def under(span: dict, funcs: frozenset, by_id: dict[int, dict]) -> bool:
    """True if some ancestor of span is a call to one of funcs."""
    parent = span["parent"]
    while parent is not None:
        anc = by_id[parent]
        if anc["func"] in funcs:
            return True
        parent = anc["parent"]
    return False


def layer_metrics(spans: list[dict], n_ops: int, count_spans: list[dict], n_count_ops: int) -> dict:
    """Per-op layer times (ms) over all spans; exact per-op counts over count_spans."""
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    own = self_times(spans)
    stab, diag = frozenset({"stability_report"}), frozenset({"diagnostics_record"})

    def ms(times, match) -> float:
        return 1000.0 * sum(times[s["id"]] for s in spans if match(s)) / n_ops

    def func(*names):
        return lambda s: s["func"] in names

    def eig_under(funcs):
        return lambda s: s["func"] == "eig_symmetric" and under(s, funcs, by_id)

    counted_eig = [s for s in count_spans if s["func"] == "eig_symmetric"]
    return {
        "graph.build_ms": ms(dur, func(*GRAPH_BUILDERS)),
        "graph.laplacian_ms": ms(dur, func("laplacian")),
        "spectral.basis_eig_ms": ms(dur, lambda s: func("eig_symmetric")(s) and not under(s, stab | diag, by_id)),
        "field.coupling_ms": ms(dur, func("build_coupling")),
        "field.solve_ms": ms(dur, func("solve_fixed_point")),
        "stability.self_ms": ms(own, func("stability_report")),
        "stability.eig_ms": ms(dur, eig_under(stab)),
        "diagnostics.self_ms": ms(own, func("diagnostics_record")),
        "diagnostics.eig_ms": ms(dur, eig_under(diag)),
        "experiments.self_ms": ms(own, lambda s: s["layer"] == "experiments"),
        "cli.self_ms": ms(own, lambda s: s["layer"] == "cli"),
        "spectral.eig_calls": len(counted_eig) / n_count_ops,
        "spectral.eig_dense_calls": sum(s["dense"] for s in counted_eig) / n_count_ops,
        "field.iterations": sum(s["iterations"] for s in count_spans
                                if s["func"] == "solve_fixed_point") / n_count_ops,
    }
