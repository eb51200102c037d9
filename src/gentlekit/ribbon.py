"""Marked ribbon graphs: graphs with a linear order on each vertex's half-edges.

Half-edges are pairs (vertex index, position); position 0 is the marked,
maximal element of its vertex's chain and positions increase downwards.
Edge ids are positive integers.  Every edge carries a reference orientation:
its target half is the one with the larger (vertex index, position) key.  An
oriented edge is a signed edge id: e in the reference orientation, -e
against it.  The split-thread construction turns a gentle quiver into such a
graph (vertices are the permitted threads, edges are the quiver's vertices)
and is inverted by reading each chain as a run of arrows with relations
between consecutive chains.
"""

import json
from collections import namedtuple

from .errors import InfiniteGlobalDimension
from .exact_linalg import IntMatrix
from .quiver import (BoundQuiver, connected, per_quiver, thread_centers,
                     validate_gentle)


class RibbonGraph:
    """Immutable marked ribbon graph.

    vertices: ordered vertex ids (strings).
    counts:   halves per vertex; vertex i owns halves (i, 0) .. (i, c-1).
    pairs:    list of (edge id, half, half) in row order for matrices.

    The constructor checks that there are vertices, with distinct ids and
    at least one half each, that the pairs match every half with exactly
    one other under distinct positive edge ids, and that the graph is
    connected.  It keeps the pairing as two inverse tables: the target half
    t_half(oe) of each oriented edge and the oriented edge
    oriented_with_target(h) into each half.  Edge e has the halves
    (t_half(e), s_half(e)); the half h lies on edge abs(oe) and is paired
    with s_half(oe), where oe = oriented_with_target(h).
    """

    def __init__(self, vertices, counts, pairs):
        self.vertices = tuple(str(v) for v in vertices)
        if not self.vertices:
            raise ValueError("ribbon graph has no vertices")
        vs = self.vertices
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex id %r" % next(
                v for i, v in enumerate(vs) if v in vs[:i]))
        self.vid_index = {v: i for i, v in enumerate(self.vertices)}
        self.counts = tuple(int(c) for c in counts)
        if len(self.counts) != len(self.vertices):
            raise ValueError("counts/vertices length mismatch")
        if any(c < 1 for c in self.counts):
            raise ValueError("every vertex needs at least one half-edge")
        self.chains = tuple(tuple((i, p) for p in range(c))
                            for i, c in enumerate(self.counts))
        all_halves = {h for ch in self.chains for h in ch}
        self.edges = []
        # the pairing as two inverse tables: the target half of each
        # oriented edge, and the oriented edge into each half
        self._head = {}
        self._into = {}
        for eid, h1, h2 in pairs:
            eid = int(eid)
            if eid < 1:
                raise ValueError("edge id %d is not a positive integer" % eid)
            if eid in self._head:
                raise ValueError("duplicate edge id %d" % eid)
            if h1 == h2:
                raise ValueError("edge %d pairs a half-edge with itself" % eid)
            for h in (h1, h2):
                if h not in all_halves:
                    raise ValueError("unknown half-edge %r" % (h,))
                if h in self._into:
                    raise ValueError("half-edge %r used twice" % (h,))
            tgt, src = (h1, h2) if h1 > h2 else (h2, h1)
            self.edges.append(eid)
            self._head[eid] = tgt
            self._head[-eid] = src
            self._into[tgt] = eid
            self._into[src] = -eid
        self.edges = tuple(self.edges)
        # row of each edge in incidence vectors and matrices
        self.edge_index = {e: k for k, e in enumerate(self.edges)}
        if len(self._into) != len(all_halves):
            raise ValueError("some half-edges are not paired")
        # the end vertex indices of each edge, in edge order: the nonzero
        # columns of its row of the incidence matrix
        ends = self._edge_ends = [(self._head[e][0], self._head[-e][0])
                                  for e in self.edges]
        if not connected(range(len(self.vertices)), ends):
            raise ValueError("ribbon graph is not connected")

    # --- basic queries -------------------------------------------------

    def rho_inv(self, half):
        """Rotate one step down the chain; the bottom wraps to the top."""
        i, p = half
        return (i, p + 1) if p + 1 < self.counts[i] else (i, 0)

    # --- oriented edges: e is the reference orientation, -e the other ----

    def t_half(self, oe):
        return self._head[oe]

    def s_half(self, oe):
        return self._head[-oe]

    def t_vertex(self, oe):
        return self.vertices[self._head[oe][0]]

    def s_vertex(self, oe):
        return self.vertices[self._head[-oe][0]]

    def oriented_edges(self):
        return [oe for e in self.edges for oe in (e, -e)]

    def oriented_with_target(self, half):
        """The unique oriented edge whose target half is the given one."""
        return self._into[half]

    def __repr__(self):
        return "RibbonGraph(%d vertices, %d edges)" % (len(self.vertices),
                                                       len(self.edges))


def incidence_matrix(g, sigma=None):
    """Edge-by-vertex matrix: each half contributes its sign to its vertex.

    sigma maps half-edges to +1/-1; omitted means all +1, so a loop row
    carries a 2 and every other row two 1s.
    """
    rows = []
    for e in g.edges:
        row = [0] * len(g.vertices)
        for h in (g._head[e], g._head[-e]):
            row[h[0]] += 1 if sigma is None else sigma[h]
        rows.append(row)
    return IntMatrix._trusted(tuple(map(tuple, rows)), len(g.vertices))


def is_bipartite(g):
    """A proper 2-colouring of the vertices, which no loop has.  A
    RibbonGraph is connected, so one colouring from vertex 0 covers it."""
    adj = [[] for _ in g.vertices]
    for u, v in g._edge_ends:
        if u == v:
            return False
        adj[u].append(v)
        adj[v].append(u)
    colour = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in colour:
                colour[v] = 1 - colour[u]
                stack.append(v)
            elif colour[v] == colour[u]:
                return False
    return True


def _graph_from_threads(threads, centers):
    """Common core of the permitted and forbidden constructions; centers is
    thread_centers(threads, quiver vertices)."""
    return RibbonGraph([th.tid for th in threads],
                       [th.length + 1 for th in threads],
                       [(v, lo, hi) for v, (lo, hi) in centers.items()])


@per_quiver
def to_ribbon(gq):
    """Marked ribbon graph on the permitted threads; edge ids are the
    quiver's vertex ids.  Vertex index i is permitted thread i, so the half
    (i, t) with t >= 1 is the chain step of arrow gq.arrow_at[(i, t)], and
    gq.permitted_pos maps each arrow name back to its half."""
    return _graph_from_threads(gq.permitted, gq.halves_at)


# the ribbon graph on the forbidden threads and its alternating sign map
ForbiddenRibbon = namedtuple("ForbiddenRibbon", ("graph", "sigma_hat"))


def forbidden_ribbon(gq):
    """Same construction on the forbidden threads, with signs (-1)^(ell - t).

    Only defined when no relation cycle closes up; otherwise some arrows
    belong to no forbidden thread and the construction breaks down.
    """
    if not gq.global_dimension_finite:
        raise InfiniteGlobalDimension(
            "relation cycle present: %s" % " ".join(gq.full_cycles[0]))
    g = _graph_from_threads(gq.forbidden,
                            thread_centers(gq.forbidden, gq.vertices))
    sigma_hat = {}
    for th in gq.forbidden:
        for pos in range(th.length + 1):
            sigma_hat[(th.index, pos)] = -1 if (th.length - pos) % 2 else 1
    return ForbiddenRibbon(g, sigma_hat)


def from_ribbon(g):
    """Read a gentle quiver off a marked ribbon graph.

    Quiver vertices are the edge ids.  Each vertex chain h_0 > h_1 > ... is a
    run of arrows (h_{t-1}, h_t) from edge(h_t) to edge(h_{t-1}); two arrows
    compose forbiddenly exactly when the second one's top half is the partner
    of the first one's bottom half.
    """
    arrows = []
    arrow_of_step = {}
    for i in range(len(g.vertices)):
        chain = g.chains[i]
        for t in range(1, len(chain)):
            name = "x%d_%d" % (i, t)
            src = abs(g._into[chain[t]])
            tgt = abs(g._into[chain[t - 1]])
            arrows.append((name, src, tgt))
            arrow_of_step[chain[t]] = name
    relations = []
    for i in range(len(g.vertices)):
        chain = g.chains[i]
        for t in range(1, len(chain)):
            # an arrow composes forbiddenly after this one exactly when the
            # partner of this one's bottom half has an arrow below it
            pi, pp = g._head[-g._into[chain[t]]]
            if pp + 1 < g.counts[pi]:
                a1 = arrow_of_step[(pi, pp + 1)]
                a2 = arrow_of_step[chain[t]]
                relations.append((a2, a1))
    base = BoundQuiver(list(g.edges), arrows, relations)
    return validate_gentle(base)


def quiver_canonical_form(gq):
    """Name-free structural form: arrows keyed by (thread index, position)."""
    pos = gq.permitted_pos
    arrows = sorted((pos[a.name], a.source, a.target) for a in gq.base.arrows)
    rels = sorted((pos[x], pos[y]) for x, y in gq.base.relations)
    return (gq.vertices, tuple(arrows), tuple(rels))


def ribbon_canonical_form(g):
    """Vertex-name-free structural form: the multiset of chain edge lists."""
    return tuple(sorted(tuple(abs(g._into[h]) for h in ch) for ch in g.chains))


# --- JSON input / output ------------------------------------------------

_ARRAY = (list, tuple)


def load_json(data):
    """JSON text parsed, or data itself when it is not text."""
    if not isinstance(data, (str, bytes)):
        return data
    try:
        return json.loads(data)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except ValueError:  # the one other kind: int() refusing too many digits
        raise ValueError("JSON number too long") from None


def ribbon_from_json(data):
    """Accepts a dict or JSON text with vertices (ordered half-edge ids,
    maximal first) and iota pairs; edge ids are assigned 1..E following the
    smaller half of each edge in (vertex order, position) order."""
    data = load_json(data)
    try:
        vlist = data["vertices"]
        iota = data["iota"]
    except (KeyError, TypeError):
        raise ValueError("ribbon JSON needs 'vertices' and 'iota'")
    if not (isinstance(vlist, _ARRAY) and isinstance(iota, _ARRAY)):
        raise ValueError("ribbon JSON 'vertices' and 'iota' must be arrays")
    names = {}
    vertices = []
    counts = []
    for i, entry in enumerate(vlist):
        if not (isinstance(entry, dict) and "id" in entry
                and isinstance(entry.get("halfEdges"), _ARRAY)):
            raise ValueError("vertex entry %d needs an 'id' and a 'halfEdges' "
                             "array" % i)
        vid = str(entry["id"])
        halves = entry["halfEdges"]
        if not halves:
            raise ValueError("vertex %r has no half-edges" % vid)
        vertices.append(vid)
        counts.append(len(halves))
        for p, hname in enumerate(halves):
            hname = str(hname)
            if hname in names:
                raise ValueError("half-edge id %r repeated" % hname)
            names[hname] = (i, p)
    paired = set()
    raw_pairs = []
    for pair in iota:
        if not isinstance(pair, _ARRAY) or len(pair) != 2:
            raise ValueError("iota entries must be pairs")
        a, b = str(pair[0]), str(pair[1])
        if a not in names or b not in names:
            raise ValueError("iota references unknown half-edge %r" % (pair,))
        if a == b:
            raise ValueError("half-edge %r is paired with itself" % a)
        for h in (a, b):
            if h in paired:
                raise ValueError("half-edge %r is in two iota pairs" % h)
            paired.add(h)
        raw_pairs.append(tuple(sorted((names[a], names[b]))))
    unpaired = [h for h in names if h not in paired]
    if unpaired:
        raise ValueError("half-edges in no iota pair: %s"
                         % ", ".join(map(repr, unpaired)))
    raw_pairs.sort(key=lambda p: p[0])
    pairs = [(k + 1, h1, h2) for k, (h1, h2) in enumerate(raw_pairs)]
    return RibbonGraph(vertices, counts, pairs)


def half_name(g, half):
    return "%s:%d" % (g.vertices[half[0]], half[1])


def ribbon_to_json(g, multiplicity=None):
    data = {
        "vertices": [
            {"id": g.vertices[i],
             "halfEdges": [half_name(g, h) for h in g.chains[i]]}
            for i in range(len(g.vertices))
        ],
        "iota": [[half_name(g, g._head[e]), half_name(g, g._head[-e])]
                 for e in g.edges],
    }
    if multiplicity is not None:
        for entry in data["vertices"]:
            entry["multiplicity"] = multiplicity[entry["id"]]
    return data


def dot_export(g):
    """Graphviz rendering; the cyclic order at each vertex is listed in the
    vertex label since dot has no native notion of it."""
    lines = ["graph ribbon {"]
    for i, v in enumerate(g.vertices):
        order = " > ".join(str(abs(g._into[h])) for h in g.chains[i])
        lines.append('  v%d [label="%s\\n%s"];' % (i, v, order))
    for e in g.edges:
        lines.append('  v%d -- v%d [label="%s"];'
                     % (g._head[-e][0], g._head[e][0], e))
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- random generation ---------------------------------------------------


def random_marked_ribbon_graph(rng, kind="any", max_vertices=6):
    """Random connected marked ribbon graph, for fuzzing.

    kind 'tree' keeps the underlying graph a tree (at least 3 vertices so a
    degree-2 vertex exists), 'odd1cycle' attaches trees to one odd cycle
    (a loop counts), 'any' adds a few arbitrary extra edges to a tree.
    """
    if kind == "tree":
        n = rng.randint(3, max(3, max_vertices))
        ends = [(i, rng.randrange(i)) for i in range(1, n)]
    elif kind == "odd1cycle":
        n = rng.randint(1, max_vertices)
        c = rng.choice([k for k in range(1, n + 1) if k % 2 == 1])
        ends = [(i, (i + 1) % c) for i in range(c)] if c > 1 else [(0, 0)]
        ends += [(i, rng.randrange(i)) for i in range(c, n)]
    else:
        n = rng.randint(1, max_vertices)
        ends = [(i, rng.randrange(i)) for i in range(1, n)]
        extra = rng.randint(0 if n > 2 else 1, 3)
        for _ in range(extra):
            ends.append((rng.randrange(n), rng.randrange(n)))
    return _ribbon_from_ends(rng, n, ends)


def _ribbon_from_ends(rng, n, ends):
    """The marked ribbon graph on vertices v0 .. v(n-1) with the k-th pair
    of ends as edge k + 1, each vertex's slots in a random order."""
    # each edge takes a slot at either end, tagged by its two signed ids
    slots = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(ends, start=1):
        slots[u].append(eid)
        slots[v].append(-eid)
    for lst in slots:
        rng.shuffle(lst)
    where = {oe: (i, p) for i, lst in enumerate(slots)
             for p, oe in enumerate(lst)}
    pairs = [(e, where[e], where[-e]) for e in range(1, len(ends) + 1)]
    return RibbonGraph(["v%d" % i for i in range(n)], map(len, slots), pairs)
