"""Outside-in span recorder for the traced runs.

The recorder replaces each layer's public functions with timing wrappers in
every hodgekit module namespace that bound them (``from .invariants import
invariant_dims`` binds a second name at import time, and calls through it
would otherwise go unseen).  The program itself is not changed.

Each span records its layer, function, parent span, start and end.  A
layer's self time is its spans' durations minus the intervals their child
spans cover.  The wrapper's own bookkeeping lies outside the span it
records but inside the child interval its parent subtracts, so it is
charged to no layer; its total is reported as ``tracer_s``.  Spans are kept
in memory and written out once, after the job.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time

LAYERS = ("cli", "hilbert", "cover", "invariants", "group", "oracle", "bigraded")


def _order(n, which):
    return math.factorial(n) * {"Sn": 1, "G": 2 ** n, "H": 2 ** (n - 1)}[which]


def _distinct(rec, layer, key):
    rec.distinct[layer].add(key)
    return {"distinct_calls": 1}


def _invariant_dims(rec, a, result):
    items = result.items()
    bits = max((d.bit_length() for _, d in items), default=0)
    counters = rec.counters["invariants"]
    counters["max_coeff_bits"] = max(counters.get("max_coeff_bits", 0), bits)
    key = ("invariant_dims", a["table"], a["n"], a["which"])
    return {**_distinct(rec, "invariants", key), "result_terms": len(items)}


# Layer-specific counters.  Each hook takes the recorder, the call's
# arguments by parameter name and its result, and returns counter increments;
# the counters count work, so an optimisation that avoids work lowers them.
HOOKS = {
    ("group", "classes"): lambda rec, a, r: {"classes_listed": len(r)},
    ("group", "enumerate_group"): lambda rec, a, r: {"elements_enumerated": len(r)},
    ("invariants", "class_trace"): lambda rec, a, r: {"class_traces": 1},
    ("invariants", "invariant_dims"): _invariant_dims,
    ("invariants", "sym_product"): lambda rec, a, r: _distinct(
        rec, "invariants", ("sym_product", a["surface"], a["m"])),
    ("hilbert", "partitions"): lambda rec, a, r: {"partitions_visited": len(r)},
    ("cover", "center_labels"): lambda rec, a, r: {"orbit_labels": len(r)},
    # labels x group elements, the pairs the projector compares
    ("oracle", "projector_invariant_dims"): lambda rec, a, r: {
        "label_checks": a["table"].total_dim() ** a["n"] * _order(a["n"], a["which"])},
    ("oracle", "element_trace"): lambda rec, a, r: {
        "label_checks": a["table"].total_dim() ** a["g"].n},
    ("bigraded", "tensor"): lambda rec, a, r: {
        "tensor_terms": len(a["a"].items()) * len(a["b"].items())},
    ("cli", "run_paper_checks"): lambda rec, a, r: {"checks": len(r)},
}

# Reported for every workload, 0 where the layer does no such work.
EXTRA_METRICS = {
    "group": ("classes_listed", "elements_enumerated"),
    "invariants": ("class_traces", "distinct_ratio", "result_terms", "max_coeff_bits"),
    "hilbert": ("partitions_visited", "distinct_ratio"),
    "cover": ("orbit_labels",),
    "oracle": ("label_checks",),
    "bigraded": ("tensor_terms",),
    "cli": ("checks",),
}


def _hashable(args):
    try:
        hash(args)
        return args
    except TypeError:
        return repr(args)


class Recorder:
    """Installs the wrappers, keeps the spans, and computes layer metrics."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = {layer: {} for layer in LAYERS}
        self.distinct = {layer: set() for layer in LAYERS}
        self._patched: list = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"hodgekit.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
        namespaces = [module for name, module in sorted(sys.modules.items())
                      if name == "hodgekit" or name.startswith("hodgekit.")]
        for module in namespaces:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counters = self.counters[layer]
        hook = HOOKS.get((layer, name))
        params = list(inspect.signature(fn).parameters)
        hilbert = layer == "hilbert"

        def wrapper(*args, **kwargs):
            outer = clock()
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                if ok:
                    extra = {}
                    if hook:
                        named = dict(zip(params, args), **kwargs)
                        extra = hook(self, named, result)
                    if hilbert:
                        key = (name, _hashable((args, tuple(sorted(kwargs.items())))))
                        extra = {**extra, **_distinct(self, "hilbert", key)}
                    for key, value in extra.items():
                        counters[key] = counters.get(key, 0) + value
                spans[sid] = (layer, name, parent, outer, start, end, clock(), ok)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_metrics(self) -> dict:
        """calls, self_s, errors and the layer-specific counters per layer."""
        covered = [0.0] * len(self.spans)
        for layer, _, parent, outer, _, _, outer_end, _ in self.spans:
            if parent >= 0:
                covered[parent] += outer_end - outer
        out = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        for sid, (layer, _, _, _, start, end, _, ok) in enumerate(self.spans):
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += end - start - covered[sid]
            row["errors"] += not ok
        for layer, names in EXTRA_METRICS.items():
            counters = self.counters[layer]
            for name in names:
                if name == "distinct_ratio":
                    calls = counters.get("distinct_calls", 0)
                    value = len(self.distinct[layer]) / calls if calls else 0.0
                else:
                    value = counters.get(name, 0)
                out[layer][name] = value
        return out

    def tracer_seconds(self) -> float:
        """Time spent in the wrappers' bookkeeping, charged to no layer."""
        return sum((start - outer) + (outer_end - end)
                   for _, _, _, outer, start, end, outer_end, _ in self.spans)

    def write(self, path, request: str) -> None:
        """Write every span, one request identifier for the whole job."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"request": request,
                       "fields": ["layer", "function", "parent", "start", "end", "ok"],
                       "spans": [[layer, name, parent, start, end, ok]
                                 for layer, name, parent, _, start, end, _, ok
                                 in self.spans]}, fh)
