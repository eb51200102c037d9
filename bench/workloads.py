"""The benchmark's three workloads.

Each workload makes its inputs from the seed (make_inputs), loads them the
way a user's process would (load: this is the set-up that setup_s times),
runs one operation on one loaded input (op), says whether an operation
failed (failure) and whether that failure is the known one
(known_failure), and checks a completed operation's output against
checks.py (check).  gentlekit is imported inside functions only, so that
importing this module does not start the set-up clock's work early.
"""

import contextlib
import importlib
import io
import json
import os
import random

import checks
import gen

# One round of analyze-ladder: (quiver vertices, cycle rank of the ribbon
# graph, finite global dimension).  With the anchors below, 41 operations
# complete per round, sorted by cost as 33 quivers of 8-20 vertices, 6 of
# 24 vertices, then 40 and 48.  A percentile of the latencies is the cost
# of the input at that rank, so p50 (rank ~21) falls among the many 12-14
# vertex quivers and p90 (rank ~37) in the middle of the six 24-vertex
# ones, never at a jump between sizes.  The 40 and 48 vertex quivers are
# where the O(n^4) characteristic polynomial dominates ops_per_s.
LADDER = (
    (8, 0, True), (8, 1, True), (8, 1, True), (8, 2, True), (8, 2, False),
    (8, 3, True), (8, 3, False),
    (10, 0, True), (10, 1, True), (10, 2, True), (10, 2, False),
    (10, 3, True), (10, 4, True),
    (12, 0, True), (12, 1, True), (12, 2, True), (12, 2, False),
    (12, 3, False), (12, 4, True),
    (14, 1, True), (14, 2, True), (14, 2, False), (14, 3, True), (14, 5, True),
    (17, 2, True), (17, 3, False), (17, 4, True),
    (20, 1, True), (20, 3, True), (20, 4, False),
    (24, 3, True), (24, 3, True), (24, 3, True), (24, 3, True), (24, 3, True),
    (40, 5, True),
    (48, 6, False),
)

# Quivers that do not depend on --seed, spread over the ladder.  Each is
# run as written and again in the newline-separated form of the DSL, which
# README and PAPER.md document but parse_quiver rejects today.
ANCHORS = ((8, 2, True), (12, 3, True), (17, 3, True), (24, 3, True))
ANCHOR_SEED = "gentlekit-bench-anchors"
KNOWN_PARSE_ERROR = "expected ';', found 'arrow'"

# One round of walk-classes: 8 positive-definite quivers small enough
# (n <= 4) that the walk bound 10 reaches 2n + 2, then 38 of finite global
# dimension.  Sorted by cost they form blocks: 6 of (8 vertices, cycle
# rank 2), 16 of (12, 2), 7 of (14, 2), 7 of (12, 3), and one each of
# (10, 4) and (14, 4).  p50 (rank ~23 of 46) falls in the middle of the
# (12, 2) block and p90 (rank ~41) in the middle of the (12, 3) block, so
# neither sits at a jump in cost that the seed could move it across.
WALK_MIX = ((8, 2),) * 6 + ((12, 2),) * 16 + ((14, 2),) * 7 + ((12, 3),) * 7 \
    + ((10, 4), (14, 4))
WALK_POSITIVE = (("tree", 2), ("tree", 3), ("tree", 4), ("tree", 4),
                 ("odd", 3), ("odd", 3), ("odd", 4), ("odd", 4))
# The multigraphs under these quivers are fixed; the seed draws their
# markings.  Walks, and so classes, depend only on the multigraph, and with
# random multigraphs of one size the walk count still varied by 30% between
# seeds, which moved p90 by as much between runs.
WALK_GRAPH_SEED = "gentlekit-bench-walk-graphs"
WALK_BOUND = 10
TRIANGLE_BOUND = 3

# One round of brauer-family: graphs on 3-8 vertices, one of four shapes in
# turn; half of them have all multiplicities 1.
BRAUER_GRAPHS = 2000
BRAUER_SHAPES = ("tree", "odd-1-cycle", "even-1-cycle", "higher-rank")


class Input:
    """One generated input: its text and what the checks need to know."""

    __slots__ = ("key", "text", "meta")

    def __init__(self, key, text, meta):
        self.key = key
        self.text = text
        self.meta = meta

    def to_json(self):
        return {"key": self.key, "text": self.text, "meta": self.meta}

    @classmethod
    def from_json(cls, d):
        return cls(d["key"], d["text"], d["meta"])


class Workload:
    """Defaults: inputs need no files, and no failure is expected."""

    def write(self, inputs, workdir):
        pass

    def failure(self, output):
        return None

    def known_failure(self, inp, reason):
        return False


def _gentlekit():
    return importlib.import_module("gentlekit")


def _gentle_from_edges(gk, rng, nv, ends):
    g = gen.ribbon_graph(gk.RibbonGraph, rng, nv, ends)
    return gk.from_ribbon(g)


def _quiver_input(gk, rng, key, n, rank, finite, graph=None, **meta):
    """A gentle quiver with n vertices whose ribbon graph has cycle rank
    `rank` and even degrees, redrawn until the global dimension matches.
    `graph` fixes the underlying edge list, so only the marking is drawn."""
    nv = n - rank + 1
    for _ in range(10_000):
        ends = graph or gen.connected_edges(rng, gen.even_degrees(nv, n))
        gq = _gentle_from_edges(gk, rng, nv, ends)
        if gq.global_dimension_finite == finite:
            return Input(key, gk.render_quiver(gq.base),
                         dict(meta, n=n, rank=rank, nv=nv, ends=ends,
                              gldim="finite" if finite else "infinite"))
    raise RuntimeError("no quiver with %d vertices, rank %d, finite=%s"
                       % (n, rank, finite))


class AnalyzeLadder(Workload):
    name = "analyze-ladder"

    def make_inputs(self, seed):
        gk = _gentlekit()
        rng = random.Random("%s:%d" % (self.name, seed))
        inputs = [_quiver_input(gk, rng, "n%d-r%d-%s-%d"
                                % (n, r, "fin" if f else "inf", k),
                                n, r, f, newline=False)
                  for k, (n, r, f) in enumerate(LADDER)]
        anchor_rng = random.Random(ANCHOR_SEED)
        for k, (n, r, f) in enumerate(ANCHORS):
            a = _quiver_input(gk, anchor_rng, "anchor%d-n%d" % (k, n), n, r, f,
                              newline=False)
            inputs.append(a)
            inputs.append(Input(a.key + "-newline", gen.newline_form(a.text),
                                dict(a.meta, newline=True)))
        rng.shuffle(inputs)
        return inputs

    def write(self, inputs, workdir):
        """The CLI reads files, so each input gets one."""
        for k, inp in enumerate(inputs):
            with open(os.path.join(workdir, "q%03d.quiver" % k), "w") as fh:
                fh.write(inp.text)

    def load(self, inputs, workdir):
        gk = _gentlekit()
        self.cli = importlib.import_module("gentlekit.cli")
        paths = []
        for k in range(len(inputs)):
            path = os.path.join(workdir, "q%03d.quiver" % k)
            with open(path) as fh:
                text = fh.read()
            try:
                gk.load_gentle(text)
            except ValueError:
                pass        # the op reports it
            paths.append(path)
        return paths

    def op(self, path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(["analyze", path, "--format", "json"])
        return rc, out.getvalue(), err.getvalue()

    def failure(self, output):
        rc, _, err = output
        return None if rc == 0 else "exit %d: %s" % (rc, err.strip())

    def known_failure(self, inp, reason):
        return (inp.meta["newline"] and reason.startswith("exit 2:")
                and KNOWN_PARSE_ERROR in reason)

    def check(self, inp, output):
        checks.check_analyze(output[1], inp.text, inp.meta["nv"], inp.meta["ends"])


class WalkClasses(Workload):
    name = "walk-classes"

    def make_inputs(self, seed):
        gk = _gentlekit()
        rng = random.Random("%s:%d" % (self.name, seed))
        graph_rng = random.Random(WALK_GRAPH_SEED)
        inputs = []
        for k, (n, r) in enumerate(WALK_MIX):
            nv = n - r + 1
            graph = gen.connected_edges(graph_rng, gen.even_degrees(nv, n))
            inputs.append(_quiver_input(gk, rng, "n%d-r%d-%d" % (n, r, k), n, r,
                                        True, graph=graph, positive=False))
        for k, (shape, n) in enumerate(WALK_POSITIVE):
            # a tree has n + 1 vertices; one odd cycle has n
            nv = n + 1 if shape == "tree" else n
            while True:
                length = 0 if shape == "tree" else rng.choice(range(1, n + 1, 2))
                ends = gen.cycle_edges(rng, nv, length)
                gq = _gentle_from_edges(gk, rng, nv, ends)
                if gq.global_dimension_finite:
                    break
            inputs.append(Input("%s-n%d-%d" % (shape, n, k),
                                gk.render_quiver(gq.base),
                                dict(n=n, nv=nv, ends=ends, positive=True,
                                     gldim="finite")))
        rng.shuffle(inputs)
        return inputs

    def load(self, inputs, workdir):
        gk = _gentlekit()
        self.derived, self.walks, self.ribbon = gk.derived, gk.walks, gk.ribbon
        return [gk.load_gentle(inp.text) for inp in inputs]

    def op(self, gq):
        derived = self.derived
        res = derived.enumerate_perfect_classes(gq, max_len=WALK_BOUND)
        classes = [(vec, derived.root_classify(gq, vec).value)
                   for vec in res.classes]
        triangles = []
        g = self.ribbon.to_ribbon(gq)
        for w in self.walks.enumerate_reduced_walks(g, TRIANGLE_BOUND):
            tri = derived.ar_translate(gq, 0, w)
            triangles.append((derived.k0_class(tri.start),
                              derived.k0_class(tri.end)))
        return {"classes": classes, "value_counts": dict(res.value_counts),
                "positive": res.positive, "triangles": triangles}

    def check(self, inp, output):
        checks.check_walk_report(output, inp.text, inp.meta["nv"],
                                 inp.meta["ends"], inp.meta["positive"])


class BrauerFamily(Workload):
    name = "brauer-family"

    def make_inputs(self, seed):
        gk = _gentlekit()
        rng = random.Random("%s:%d" % (self.name, seed))
        inputs = []
        for k in range(BRAUER_GRAPHS):
            shape = BRAUER_SHAPES[k % len(BRAUER_SHAPES)]
            nv = rng.randint(3, 8)
            if shape == "tree":
                ends = gen.connected_edges(rng, gen.random_degrees(rng, nv, nv - 1))
            elif shape == "higher-rank":
                ne = nv - 1 + rng.choice((2, 3))
                ends = gen.connected_edges(rng, gen.random_degrees(rng, nv, ne))
            else:
                first = 1 if shape == "odd-1-cycle" else 2
                ends = gen.cycle_edges(rng, nv, rng.choice(range(first, nv + 1, 2)))
            g = gen.ribbon_graph(gk.RibbonGraph, rng, nv, ends)
            if rng.random() < 0.5:
                mult = {v: 1 for v in g.vertices}
            else:
                mult = {v: rng.randint(1, 4) for v in g.vertices}
            inputs.append(Input("%s-%d" % (shape, k),
                                json.dumps(gk.ribbon_to_json(g, mult)),
                                {"shape": shape}))
        return inputs

    def load(self, inputs, workdir):
        self.brauer = _gentlekit().brauer
        for inp in inputs:
            self.brauer.brauer_from_json(inp.text)
        return [inp.text for inp in inputs]

    def op(self, text):
        brauer = self.brauer
        bg = brauer.brauer_from_json(text)
        verdict = brauer.brauer_classify(bg)
        cartan = brauer.brauer_cartan(bg)
        return (cartan.to_lists(), verdict.definiteness, verdict.tag,
                verdict.repType, verdict.corank)

    def check(self, inp, output):
        checks.check_brauer(output, inp.text)


WORKLOADS = {w.name: w for w in (AnalyzeLadder(), WalkClasses(), BrauerFamily())}
