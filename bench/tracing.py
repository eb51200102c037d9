"""Per-layer tracing of gentlekit from outside the package.

A layer is one gentlekit module.  Tracer.install wraps every public
function defined in a layer (and IntMatrix multiplication) and rebinds the
wrapper under every name that any gentlekit module holds for the original,
so calls between modules and inside a module both pass through it.  No
program file changes.  The benchmark's own calls must look names up on the
modules at call time.

Each call is a span (name, start, end, parent).  On exit the span's time
is charged to its parent as child time, so a name's self time is its span
time minus the time its child spans cover.  Spans are also kept in memory,
up to a cap, and written out by write_spans when the run ends.
"""

import functools
import importlib
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "quiver", "ribbon", "walks", "exact_linalg", "invariants",
          "derived", "brauer")

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.stack = []                 # open frames: [child_s, name, span_id]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.pair_calls = Counter()     # (parent name, name)
        self.counters = Counter()       # sizes of selected results
        self.spans = []                 # (span_id, parent_id, name, start, end)
        self.next_id = 0
        self.bindings = None

    def _wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            tracer.next_id += 1
            frame = [0.0, name, tracer.next_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                    tracer.pair_calls[parent[1], name] += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[2], parent and parent[2], name,
                                         start, end))
            if on_result is not None:
                on_result(tracer, result, parent and parent[1])
            return result
        return wrapper

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every name to rebind."""
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module("gentlekit." + layer)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = self._wrap(
                        "%s.%s" % (layer, attr), obj, _RESULT_HOOKS.get(attr))
        out = []
        for name, mod in list(sys.modules.items()):
            if name == "gentlekit" or name.startswith("gentlekit."):
                out += [(mod, attr, obj, replace[id(obj)])
                        for attr, obj in vars(mod).items() if id(obj) in replace]
        int_matrix = importlib.import_module("gentlekit.exact_linalg").IntMatrix
        mul = int_matrix.__mul__
        matmul = self._wrap("exact_linalg.matmul", mul)
        out += [(int_matrix, "__mul__", mul, matmul),
                (int_matrix, "__rmul__", int_matrix.__rmul__, matmul)]
        return out

    def install(self):
        """Rebind every wrapper; uninstall() puts the originals back."""
        if self.bindings is None:
            self.bindings = self._bindings()
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def layer_calls(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def count(self, name):
        """Calls of one span name.  For "ribbon.to_ribbon" it is the ribbon
        graphs built from a quiver: to_ribbon calls plus to_ribbon_with_maps
        calls not made by to_ribbon."""
        if name != "ribbon.to_ribbon":
            return self.calls[name]
        return (self.calls["ribbon.to_ribbon"]
                + self.calls["ribbon.to_ribbon_with_maps"]
                - self.pair_calls["ribbon.to_ribbon", "ribbon.to_ribbon_with_maps"])

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for sid, pid, name, start, end in self.spans:
                fh.write("%d\t%s\t%s\t%.9f\t%.9f\n"
                         % (sid, "" if pid is None else pid, name, start, end))


def _count_walks(tracer, result, parent):
    tracer.counters["walks"] += len(result)
    if parent == "derived.enumerate_perfect_classes":
        tracer.counters["walks_for_classes"] += len(result)


def _count_classes(tracer, result, parent):
    tracer.counters["classes"] += len(result.classes)


_RESULT_HOOKS = {
    "enumerate_reduced_walks": _count_walks,
    "enumerate_perfect_classes": _count_classes,
}


PER_OP = ("exact_linalg.char_poly", "invariants.euler_analysis",
          "invariants.coxeter", "invariants.aag_invariant", "walks.faces",
          "quiver.cartan_matrix", "ribbon.to_ribbon")


class PerOpCounts:
    """Calls of PER_OP made by each completed operation, summed by the
    global dimension of its input (None for Brauer graphs)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.sums = Counter()       # (name, gldim) -> calls
        self.ops = Counter()        # gldim -> completed ops

    def before(self):
        return [self.tracer.count(name) for name in PER_OP]

    def after(self, before, inp):
        gldim = inp.meta.get("gldim")
        self.ops[gldim] += 1
        for name, b, a in zip(PER_OP, before, self.before()):
            self.sums[name, gldim] += a - b

    def per_op(self, name, gldim="all"):
        if gldim == "all":
            ops = sum(self.ops.values())
            calls = sum(v for (n, _), v in self.sums.items() if n == name)
        else:
            ops = self.ops[gldim]
            calls = self.sums[name, gldim]
        return calls / ops if ops else 0


def _exact(x):
    return int(x) if x == int(x) else x


def traced_metrics(run, seconds, spans_path):
    """Pairs of one untraced and one traced round for `seconds`, so that
    both sides of the tracing overhead see the same machine.  Counts and
    times are per traced round; every round runs the same inputs, so counts
    repeat exactly."""
    tracer = Tracer()
    per_op = PerOpCounts(tracer)
    walls = [0.0, 0.0]

    def pair():
        walls[0] += run.one_round()
        tracer.install()
        try:
            walls[1] += run.one_round(per_op)
        finally:
            tracer.uninstall()

    n = run.rounds_for(seconds, pair)
    untraced, traced = walls[0] / n, walls[1] / n
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write_spans(spans_path)

    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = (tracer.layer_self_s(layer) / n, "s")
        m[layer + ".calls"] = (_exact(tracer.layer_calls(layer) / n), "count")
    for name in ("exact_linalg.char_poly", "exact_linalg.matmul",
                 "exact_linalg.rank_corank", "exact_linalg.det",
                 "invariants.euler_analysis", "invariants.coxeter",
                 "invariants.aag_invariant", "walks.faces",
                 "quiver.cartan_matrix", "ribbon.to_ribbon",
                 "derived.ar_translate", "derived.build_string_complex",
                 "brauer.brauer_classify"):
        m[name + ".calls"] = (_exact(tracer.count(name) / n), "count")
    m["exact_linalg.char_poly.self_s"] = (
        tracer.self_s["exact_linalg.char_poly"] / n, "s")
    m["exact_linalg.char_poly.total_s"] = (
        tracer.total_s["exact_linalg.char_poly"] / n, "s")
    for name in PER_OP:
        m[name + ".calls_per_op"] = (per_op.per_op(name), "calls/op")
    for gldim in ("finite", "infinite"):
        m["exact_linalg.char_poly.calls_per_op_%s_gldim" % gldim] = (
            per_op.per_op("exact_linalg.char_poly", gldim), "calls/op")
    walks = tracer.counters["walks_for_classes"]
    m["walks.enumerate_reduced_walks.walks"] = (
        _exact(tracer.counters["walks"] / n), "count")
    m["derived.classes"] = (_exact(tracer.counters["classes"] / n), "count")
    m["derived.classes_per_walk"] = (
        tracer.counters["classes"] / walks if walks else 0, "ratio")
    m["trace.untraced_round_s"] = (untraced, "s")
    m["trace.traced_round_s"] = (traced, "s")
    m["trace.overhead_ratio"] = (traced / untraced, "ratio")
    m["trace.rounds"] = (n, "count")
    return m
