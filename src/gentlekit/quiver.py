"""Bound quivers with monomial length-2 relations, and the gentle ones.

A bound quiver here is a finite connected quiver together with a set of
forbidden length-2 paths.  Paths compose right to left: the pair (a, b)
stands for the path "b first, then a", so it requires target(b) == source(a).
A written word a_1 a_2 ... a_k is traversed from a_k down to a_1.

The DSL accepted by parse_quiver has three statement forms,

    vertices ID ID ...
    arrow NAME: SOURCE -> TARGET
    rel NAME.NAME

as in

    # comment
    vertices 1 2 3;
    arrow a1: 1 -> 2; arrow a2:2->3
    rel a2.a1

Ids are positive integers and names are identifiers [A-Za-z_][A-Za-z0-9_]*.
Whitespace around ':', '->' and '.' is optional; a keyword and the name or
id after it, and two ids, need whitespace between them.  A statement ends at
';' or at the end of its line, and cannot span lines; ';' followed by a line
break is one terminator, but an empty statement, as in ';;', is an error.
'#' starts a comment that runs to the end of the line, and blank or
comment-only lines are skipped.  The last statement still needs a
terminator, so text ending mid-statement is an error.
"""

import functools
import re
import sys
from collections import namedtuple


class QuiverSyntaxError(ValueError):
    def __init__(self, msg, line, col):
        super().__init__("%s (line %d, column %d)" % (msg, line, col))


class QuiverStructureError(ValueError):
    pass


class GentlenessViolation(ValueError):
    pass


class NotAdmissible(ValueError):
    pass


Arrow = namedtuple("Arrow", ["name", "source", "target"])


def connected(nodes, pairs):
    """Is the undirected graph on nodes with edges pairs connected?  The
    graph with no nodes counts as connected."""
    adj = {v: [] for v in nodes}
    for u, w in pairs:
        adj[u].append(w)
        adj[w].append(u)
    stack = list(adj)[:1]
    seen = set(stack)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def cycles(items, succ):
    """The cycles of the successor map succ, each a tuple starting at its
    first item in items order.  Following stops at an item already seen, so
    a map that is not a permutation cannot loop forever."""
    out = []
    seen = set()
    for start in items:
        cyc = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = succ(cur)
        if cyc:
            out.append(tuple(cyc))
    return out


class BoundQuiver:
    """Vertices, named arrows and a set of forbidden length-2 compositions.

    relations is a set of arrow-name pairs (a, b) meaning "b then a" is
    forbidden; composability target(b) == source(a) is enforced.
    """

    def __init__(self, vertices, arrows, relations):
        self.vertices = tuple(int(v) for v in vertices)
        self.arrows = tuple(Arrow(str(a[0]), int(a[1]), int(a[2])) for a in arrows)
        self.relations = frozenset((str(a), str(b)) for a, b in relations)
        self._validate()

    def _validate(self):
        vs = self.vertices
        if len(set(vs)) != len(vs):
            raise QuiverStructureError("duplicate vertex id %r" % next(
                v for i, v in enumerate(vs) if v in vs[:i]))
        if not self.vertices:
            raise QuiverStructureError("no vertices declared")
        if min(self.vertices) < 1:
            raise QuiverStructureError("vertex id %d is not a positive integer"
                                       % min(self.vertices))
        if not self.arrows:
            raise QuiverStructureError("a bound quiver needs at least one arrow")
        vset = set(self.vertices)
        names = {}
        for a in self.arrows:
            if a.name in names:
                raise QuiverStructureError("duplicate arrow name %r" % a.name)
            names[a.name] = a
            for v in (a.source, a.target):
                if v not in vset:
                    raise QuiverStructureError(
                        "arrow %r references undeclared vertex %d" % (a.name, v))
        for first, second in self.relations:
            if first not in names or second not in names:
                raise QuiverStructureError(
                    "relation %s.%s references an unknown arrow" % (first, second))
            if names[second].target != names[first].source:
                raise QuiverStructureError(
                    "relation %s.%s is not a composable pair" % (first, second))
        if not connected(self.vertices,
                         [(a.source, a.target) for a in self.arrows]):
            raise QuiverStructureError("quiver is not connected")
        self.arrow_by_name = names
        self.in_arrows = {v: [] for v in self.vertices}
        self.out_arrows = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.out_arrows[a.source].append(a.name)
            self.in_arrows[a.target].append(a.name)

    def source(self, name):
        return self.arrow_by_name[name].source

    def target(self, name):
        return self.arrow_by_name[name].target

    def __eq__(self, other):
        return (isinstance(other, BoundQuiver)
                and self.vertices == other.vertices
                and self.arrows == other.arrows
                and self.relations == other.relations)

    def __repr__(self):
        return "BoundQuiver(%d vertices, %d arrows, %d relations)" % (
            len(self.vertices), len(self.arrows), len(self.relations))


_NAME = "[A-Za-z_][A-Za-z0-9_]*"
# the form of each statement kind, for errors, a regex for a statement
# stripped of surrounding whitespace and its groups of ids; \s and \d are
# Unicode, as the whitespace that str.strip drops and the digits int reads
_STATEMENTS = {
    "vertices": ("'vertices ID ID ...'",
                 re.compile(r"vertices\s*(\d+(?:\s+\d+)*)"), (1,)),
    "arrow": ("'arrow NAME: SOURCE -> TARGET'",
              re.compile(r"arrow\s+(%s)\s*:\s*(\d+)\s*->\s*(\d+)" % _NAME),
              (2, 3)),
    "rel": ("'rel NAME.NAME'",
            re.compile(r"rel\s+(%s)\s*\.\s*(%s)" % (_NAME, _NAME)), ()),
}


def parse_quiver(text):
    """Parse the quiver DSL into a BoundQuiver.  A QuiverSyntaxError names
    the line and the column where the faulty statement starts, quotes it
    and gives the form its keyword expects."""
    found = {kw: [] for kw in _STATEMENTS}
    max_digits = sys.get_int_max_str_digits()  # int()'s limit, 0 for none
    for ln, raw in enumerate(text.splitlines(keepends=True), start=1):
        line = raw.splitlines()[0]
        pieces = line.split("#", 1)[0].split(";")
        col = 1
        for k, piece in enumerate(pieces):
            stmt = piece.strip()
            at = col + len(piece) - len(piece.lstrip())
            col += len(piece) + 1
            if k == len(pieces) - 1:
                # after the line's last ';': blank, or ended by the line break
                if not stmt:
                    break
                if line == raw:
                    raise QuiverSyntaxError("%r needs ';' or a line break "
                                            "after it" % stmt, ln, at)
            # the keyword is the whole leading name, so "vertices1" is none
            kw = re.match(_NAME, stmt)
            kw = kw and kw.group()
            if kw not in _STATEMENTS:
                raise QuiverSyntaxError("expected 'vertices', 'arrow' or "
                                        "'rel', found %r" % stmt, ln, at)
            form, regex, id_groups = _STATEMENTS[kw]
            m = regex.fullmatch(stmt)
            if not m:
                raise QuiverSyntaxError("expected %s then ';' or a line "
                                        "break, found %r" % (form, stmt),
                                        ln, at)
            for g in id_groups:
                for d in re.finditer(r"\d+", m.group(g)):
                    if max_digits and d.end() - d.start() > max_digits:
                        raise QuiverSyntaxError(
                            "id of more than %d digits" % max_digits,
                            ln, at + m.start(g) + d.start())
            found[kw].append(m.groups())
    vertices = [v for (ids,) in found["vertices"] for v in ids.split()]
    return BoundQuiver(vertices, found["arrow"], found["rel"])


def render_quiver(q):
    """Serialize back to the DSL; parse_quiver(render_quiver(q)) == q."""
    lines = ["vertices %s;" % " ".join(str(v) for v in q.vertices)]
    for a in q.arrows:
        lines.append("arrow %s: %d -> %d;" % (a.name, a.source, a.target))
    for first, second in sorted(q.relations):
        lines.append("rel %s.%s;" % (first, second))
    return "\n".join(lines) + "\n"


class Thread:
    """A maximal word of arrows, or a trivial word sitting at one vertex.

    arrows: written order (last traversed first); vertices: the ell+1 visited
    vertices, index 0 at the target end of the written word.
    """

    __slots__ = ("tid", "arrows", "vertices", "index")

    def __init__(self, tid, arrows, vertices, index):
        self.tid = tid
        self.arrows = tuple(arrows)
        self.vertices = tuple(vertices)
        self.index = index

    @property
    def length(self):
        return len(self.arrows)

    @property
    def source(self):
        return self.vertices[-1]

    @property
    def target(self):
        return self.vertices[0]

    @property
    def initial_arrow(self):
        """First traversed arrow (None for trivial threads)."""
        return self.arrows[-1] if self.arrows else None

    @property
    def terminating_arrow(self):
        """Last traversed arrow (None for trivial threads)."""
        return self.arrows[0] if self.arrows else None

    def __repr__(self):
        return "Thread(%s: %s)" % (self.tid, " ".join(self.arrows) or "trivial")


class GentleQuiver:
    """A validated gentle bound quiver plus its thread decomposition."""

    def __init__(self, base, permitted, forbidden, full_cycles):
        self.base = base
        self.permitted = tuple(permitted)
        self.forbidden = tuple(forbidden)
        self.full_cycles = tuple(full_cycles)
        self.global_dimension_finite = not self.full_cycles
        # position of each arrow inside its permitted thread, 1-based, and
        # the arrow at each position
        self.permitted_pos = {}
        self.arrow_at = {}
        for th in self.permitted:
            for t, name in enumerate(th.arrows, start=1):
                self.permitted_pos[name] = (th.index, t)
                self.arrow_at[(th.index, t)] = name
        # the two permitted half-positions centered at each vertex, sorted
        self.halves_at = thread_centers(self.permitted, self.base.vertices)
        self._memo = {}

    @property
    def vertices(self):
        return self.base.vertices

    @property
    def arrows(self):
        return self.base.arrows

    @property
    def relations(self):
        return self.base.relations


def per_quiver(fn):
    """Compute fn(gq) once per GentleQuiver and keep the result on gq.

    Every later call returns that same object, so callers share it and must
    treat it as read-only.  A call that raises stores nothing.
    """
    @functools.wraps(fn)
    def once(gq):
        try:
            return gq._memo[fn]
        except KeyError:
            result = gq._memo[fn] = fn(gq)
            return result
    return once


def thread_centers(threads, vertices):
    """The two (thread index, position) pairs sitting at each vertex, sorted:
    the two halves of that vertex's edge in the split-thread graph.  When
    every arrow lies on a thread, v sits at deg(v) - pairs(v) positions of
    nontrivial threads and on 2 - deg(v) + pairs(v) trivial ones, so at
    exactly two."""
    at = {v: [] for v in vertices}
    for th in threads:
        for pos, v in enumerate(th.vertices):
            at[v].append((th.index, pos))
    return {v: tuple(sorted(lst)) for v, lst in at.items()}


def _successor_maps(q):
    """Permitted / forbidden traversal successor maps.

    Raises GentlenessViolation, naming the first vertex or arrow that breaks
    one of conditions (a)-(d), when a map or its inverse is not a function.
    """
    for v in q.vertices:
        if len(q.out_arrows[v]) > 2:
            raise GentlenessViolation(
                "vertex %d has %d outgoing arrows (condition a)"
                % (v, len(q.out_arrows[v])))
        if len(q.in_arrows[v]) > 2:
            raise GentlenessViolation(
                "vertex %d has %d incoming arrows (condition b)"
                % (v, len(q.in_arrows[v])))
    nxt_p, nxt_f = {}, {}
    for x in q.arrows:
        succ_p, prev_p, succ_f, prev_f = [], [], [], []
        for y in q.out_arrows[x.target]:
            (succ_f if (y, x.name) in q.relations else succ_p).append(y)
        for y in q.in_arrows[x.source]:
            (prev_f if (x.name, y) in q.relations else prev_p).append(y)
        if len(succ_p) > 1 or len(prev_p) > 1:
            raise GentlenessViolation(
                "arrow %s admits two unrelated compositions (condition c)" % x.name)
        if len(succ_f) > 1 or len(prev_f) > 1:
            raise GentlenessViolation(
                "arrow %s admits two related compositions (condition d)" % x.name)
        for found, into in ((succ_p, nxt_p), (succ_f, nxt_f)):
            if found:
                into[x.name] = found[0]
    return nxt_p, nxt_f


def _chains(arrow_names, nxt):
    """Maximal chains and cycles of a partial successor map.

    The map is injective by conditions (c) and (d), so chains start at the
    arrows that are no value of it, and the arrows no chain reaches form
    the cycles.  Returns (chains, cycles), both in traversal order.
    """
    successors = set(nxt.values())
    chains = []
    placed = set()
    for start in arrow_names:
        if start in successors:
            continue
        chain = [start]
        while chain[-1] in nxt:
            chain.append(nxt[chain[-1]])
        chains.append(chain)
        placed.update(chain)
    return chains, cycles([a for a in arrow_names if a not in placed],
                          nxt.__getitem__)


def _written(q, traversal):
    """Thread word in written order plus its visited vertices."""
    arrows = tuple(reversed(traversal))
    verts = [q.target(arrows[0])]
    for name in arrows:
        verts.append(q.source(name))
    return arrows, tuple(verts)


def _trivial_vertices(q, nxt):
    """Vertices carrying a trivial thread, those where 2 - deg(v) + pairs(v)
    is 1.  Each arrow into v heads at most one composable pair through v,
    the one nxt records.  Conditions (a)-(d) leave only the counts 0 and 1:
    a vertex of degree 1 has no pair and one of degree 2 at most one; at
    degree 3 or 4 every arrow with two partners at v forms a pair of the
    kind nxt records with exactly one, which makes deg(v) - 2 pairs."""
    pairs_through = {v: 0 for v in q.vertices}
    for name in nxt:
        pairs_through[q.target(name)] += 1
    return [v for v in q.vertices
            if 2 - len(q.in_arrows[v]) - len(q.out_arrows[v]) + pairs_through[v]]


def _sort_threads(q, words, trivial_vertices):
    """Canonical thread order: nontrivial by declaration index of their
    smallest arrow name, then trivial threads by vertex id."""
    decl = {a.name: i for i, a in enumerate(q.arrows)}
    words = sorted(words, key=lambda w: decl[min(w[0])])
    threads = []
    for arrows, verts in words:
        threads.append(Thread(min(arrows), arrows, verts, len(threads)))
    for v in sorted(trivial_vertices):
        threads.append(Thread("triv:%d" % v, (), (v,), len(threads)))
    return threads


def validate_gentle(q):
    """Check gentleness and admissibility, and decompose into threads.

    Raises GentlenessViolation or NotAdmissible; returns a GentleQuiver.
    """
    nxt_p, nxt_f = _successor_maps(q)
    names = [a.name for a in q.arrows]
    p_chains, p_cycles = _chains(names, nxt_p)
    if p_cycles:
        raise NotAdmissible("unbounded repeatable cycle through arrows %s"
                            % " ".join(p_cycles[0]))
    perm_words = [_written(q, tr) for tr in p_chains]
    permitted = _sort_threads(q, perm_words, _trivial_vertices(q, nxt_p))

    f_chains, f_cycles = _chains(names, nxt_f)
    forb_words = [_written(q, tr) for tr in f_chains]
    forbidden = _sort_threads(q, forb_words, _trivial_vertices(q, nxt_f))
    full_cycles = []
    for tr in f_cycles:
        written = tuple(reversed(tr))
        k = written.index(min(written))
        full_cycles.append(written[k:] + written[:k])
    return GentleQuiver(q, permitted, forbidden, sorted(full_cycles))


@per_quiver
def cartan_matrix(gq):
    """Matrix of composable-word counts: entry (j, i) counts words from i to j.

    Column i is the dimension vector of the projective at vertex i.
    """
    from .exact_linalg import IntMatrix

    idx = {v: k for k, v in enumerate(gq.vertices)}
    n = len(gq.vertices)
    c = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for th in gq.permitted:
        ell = th.length
        for a in range(ell):
            for b in range(a + 1, ell + 1):
                # written subword arrows[a:b] runs from vertices[b] to vertices[a]
                c[idx[th.vertices[a]]][idx[th.vertices[b]]] += 1
    return IntMatrix._trusted(tuple(map(tuple, c)), n)


class StringFunctionPair:
    """A pair of arrow sign functions compatible with the relation structure."""

    __slots__ = ("S", "T")

    def __init__(self, S, T):
        self.S = dict(S)
        self.T = dict(T)

    def as_tuple(self, q):
        names = [a.name for a in q.arrows]
        return (tuple(self.S[n] for n in names), tuple(self.T[n] for n in names))

    def check(self, q):
        for x in q.arrows:
            for y in q.arrows:
                if x.name >= y.name:
                    continue
                if x.source == y.source and self.S[x.name] == self.S[y.name]:
                    return False
                if x.target == y.target and self.T[x.name] == self.T[y.name]:
                    return False
        for x in q.arrows:
            for y in q.out_arrows[x.target]:
                forbidden = (y, x.name) in q.relations
                if forbidden != (self.T[x.name] == self.S[y]):
                    return False
        return True


def string_functions(gq, direction):
    """Build the sign pair attached to one choice of edge directions.

    direction maps each vertex of the quiver (an edge of the split-thread
    graph) to +1 or -1; +1 selects the reference orientation of that edge.
    """
    for v in gq.vertices:
        if direction.get(v) not in (1, -1):
            raise ValueError("direction must map vertex %s to +1 or -1" % v)
    sigma = {}
    for v, (lo, hi) in gq.halves_at.items():
        sigma[hi] = direction[v]
        sigma[lo] = -direction[v]
    S, T = {}, {}
    for name, (ti, t) in gq.permitted_pos.items():
        S[name] = sigma[(ti, t)]
        T[name] = -sigma[(ti, t - 1)]
    return StringFunctionPair(S, T)


def load_gentle(text):
    """Parse and validate in one go."""
    return validate_gentle(parse_quiver(text))
