"""Walks on a marked ribbon graph.

A walk is a word of oriented edges i_1 ... i_{L+1}, written left to right but
traversed right to left: the source of the walk is the source of the last
written edge.  An oriented edge is a signed edge id, e in the reference
orientation and -e against it, so the word is what render prints and
parse_walk reads.  Consecutive edges must meet in a vertex: source(i_t) ==
target(i_{t+1}).  Each junction carries a degree +1 or -1 according to
whether the incoming half sits above or below the outgoing half in the
vertex's chain; equal halves would mean backtracking, which is what
"reduced" rules out.

One face step, _next_oriented, writes after an edge the edge whose target
half sits directly below the edge's source half, the bottom of a chain
wrapping to its marked half (v, 0).  Faces are the orbits of that step, and
anti-walks are its runs from a marked half down to the bottom of a chain; a
non-full face is the chain of anti-walks of the marked halves it reaches.
A face step has degree -1 exactly where it wraps, so a face's degree and
its pair count the marked halves it reaches.
"""

from .quiver import cycles


class UnknownEdge(ValueError):
    pass


class NotConcatenable(ValueError):
    pass


class NotReduced(ValueError):
    pass


class Walk:
    """Immutable walk; edges in written order, or empty with a base vertex."""

    __slots__ = ("graph", "edges", "base")

    def __init__(self, graph, edges, base=None):
        self.graph = graph
        self.edges = tuple(edges)
        for oe in self.edges:
            if type(oe) is not int or abs(oe) not in graph.edge_index:
                raise UnknownEdge("no oriented edge %r" % (oe,))
        if self.edges:
            self.base = None
            for t in range(len(self.edges) - 1):
                if graph.s_vertex(self.edges[t]) != graph.t_vertex(self.edges[t + 1]):
                    raise NotConcatenable(
                        "edges at positions %d and %d do not meet" % (t + 1, t + 2))
        else:
            if base not in graph.vid_index:
                raise ValueError("no vertex %r in the graph" % (base,))
            self.base = base

    @classmethod
    def _trusted(cls, graph, edges):
        """A walk on a non-empty tuple of edges built to meet."""
        w = object.__new__(cls)
        w.graph, w.edges, w.base = graph, edges, None
        return w

    @property
    def trivial(self):
        return not self.edges

    @property
    def length(self):
        return len(self.edges)

    @property
    def source_vertex(self):
        return self.graph.s_vertex(self.edges[-1]) if self.edges else self.base

    @property
    def target_vertex(self):
        return self.graph.t_vertex(self.edges[0]) if self.edges else self.base

    @property
    def closed(self):
        return self.source_vertex == self.target_vertex

    @property
    def reduced(self):
        for t in range(len(self.edges) - 1):
            if self.edges[t + 1] == -self.edges[t]:
                return False
        return True

    def inverse(self):
        if self.trivial:
            return self
        return Walk._trusted(self.graph,
                             tuple(-e for e in reversed(self.edges)))

    def render(self):
        if self.trivial:
            return "(trivial at %s)" % self.base
        return " ".join(map(str, self.edges))

    def __eq__(self, other):
        return (isinstance(other, Walk) and self.graph is other.graph
                and self.edges == other.edges and self.base == other.base)

    def __hash__(self):
        return hash((self.edges, self.base))

    def __repr__(self):
        return "Walk(%s)" % self.render()


def trivial_walk(g, vertex_id):
    return Walk(g, (), base=vertex_id)


def parse_walk(g, text):
    toks = text.split()
    if not toks:
        raise ValueError("empty walk")
    edges = []
    for tok in toks:
        try:
            edges.append(int(tok))
        except ValueError:
            raise UnknownEdge("bad edge token %r" % tok)
    return Walk(g, edges)


def deg_step(g, i, j):
    """Degree of a reduced junction: +1 when the incoming half sits above
    the outgoing half (smaller position), -1 below."""
    sh = g.s_half(i)
    th = g.t_half(j)
    if sh[0] != th[0]:
        raise NotConcatenable("junction halves at different vertices")
    if sh == th:
        raise NotReduced("backtracking junction")
    return 1 if sh[1] < th[1] else -1


def degree(w):
    """Sum of junction degrees; 0 for trivial and single-edge walks.
    deg_step raises NotReduced at a backtracking junction."""
    g = w.graph
    return sum(deg_step(g, w.edges[t], w.edges[t + 1])
               for t in range(len(w.edges) - 1))


def incidence_vector(w):
    """Alternating edge-indicator sum, +1 on the first written edge."""
    g = w.graph
    index = g.edge_index
    v = [0] * len(g.edges)
    for e in w.edges[::2]:
        v[index[abs(e)]] += 1
    for e in w.edges[1::2]:
        v[index[abs(e)]] -= 1
    return tuple(v)


def connecting_path(g, i, j):
    """The chain steps crossed between a junction's halves.

    For a degree +1 junction of i into j this is the run of chain positions
    from just below s_half(i) down to t_half(j); each step is a half-edge
    (vertex index, position) naming one arrow of the chain.  For degree -1
    the run for the reversed pair is returned.
    """
    d = deg_step(g, i, j)
    if d < 0:
        i, j = -j, -i
    sh = g.s_half(i)
    th = g.t_half(j)
    return d, tuple((sh[0], p) for p in range(sh[1] + 1, th[1] + 1))


def _period(seq):
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and all(seq[k] == seq[k % p] for k in range(n)):
            return p
    return n


def is_belt(w):
    """First and last written edge coincide, the core is primitive, and the
    total degree vanishes both globally and at the seam.  The core is closed
    because consecutive edges meet: s(e[-2]) = t(e[-1]) = t(e[0])."""
    g = w.graph
    e = w.edges
    if len(e) < 3 or e[0] != e[-1] or not w.reduced:
        return False
    core = e[:-1]
    if _period(core) != len(core):
        return False
    if degree(w) != 0:
        return False
    return deg_step(g, e[-2], e[-1]) + deg_step(g, e[0], e[1]) == 0


def classify_walk(w):
    if not w.reduced:
        return "not-reduced"
    if is_belt(w):
        return "belt"
    if w.closed:
        return "closed-even" if w.length % 2 == 0 else "closed-odd"
    return "open"


# --- anti-walks and faces -------------------------------------------------


def _next_oriented(g, i):
    """The edge written directly after i inside its face."""
    return g.oriented_with_target(g.rho_inv(g.s_half(i)))


def anti_walk(g, vertex_id):
    """Face steps from the edge into the vertex's marked half, stopping
    where the current source half is the bottom of its chain: the next step
    would wrap to a marked half."""
    vi = g.vid_index[vertex_id]
    edges = [g.oriented_with_target((vi, 0))]
    while True:
        sh = g.s_half(edges[-1])
        if sh[1] == g.counts[sh[0]] - 1:
            break
        edges.append(_next_oriented(g, edges[-1]))
    return Walk._trusted(g, tuple(edges))


class Face:
    """One orbit of the face step, and the number n of marked halves
    (v, 0) that it reaches as target halves.

    A face step has degree -1 exactly where it wraps from the bottom of a
    chain to a marked half, the backtracking step at a one-half vertex
    included, and +1 everywhere else.  So a face of length L has degree
    L - 2n and pair (n, L - n), and it is full when n is 0.
    """

    __slots__ = ("walk", "n")

    def __init__(self, walk, n):
        self.walk = walk
        self.n = n

    @property
    def length(self):
        return self.walk.length

    @property
    def is_full(self):
        return self.n == 0

    @property
    def deg_closed(self):
        return self.length - 2 * self.n

    @property
    def pair(self):
        return (self.n, self.length - self.n)

    def __repr__(self):
        return "Face(%s%s)" % (self.walk.render(), ", full" if self.is_full else "")


def faces(g):
    """All faces, each oriented edge appearing in exactly one of them.

    Each face is written so that its reading in traversal order, an edge
    i comparing as (abs(i), -i) so that e comes before -e, is least.  A face
    passes each oriented edge once, so that reading starts at the face's
    least oriented edge, which is written last.  Between consecutive marked
    halves a non-full face runs along the anti-walk of the first one.
    """
    out = []
    for cyc in cycles(g.oriented_edges(), lambda i: _next_oriented(g, i)):
        k = min(range(len(cyc)), key=lambda t: (abs(cyc[t]), -cyc[t])) + 1
        n = sum(g.t_half(i)[1] == 0 for i in cyc)
        out.append(Face(Walk._trusted(g, cyc[k:] + cyc[:k]), n))
    return out


# --- concatenation --------------------------------------------------------


def reduced_concat(w1, w2):
    """Concatenate with maximal cancellation at the junction."""
    if w1.graph is not w2.graph:
        raise ValueError("walks live on different graphs")
    e1, e2 = w1.edges, w2.edges
    if e1 and e2:
        # nontrivial walks meet where the source half of the left walk's
        # last edge and the target half of the right walk's first edge do
        head = w1.graph._head
        meet = head[-e1[-1]][0] == head[e2[0]][0]
    else:
        meet = w1.source_vertex == w2.target_vertex
    if not meet:
        raise NotConcatenable("source of the left walk is %s, target of the "
                              "right walk is %s" % (w1.source_vertex,
                                                    w2.target_vertex))
    if not e1:
        return w2
    if not e2:
        return w1
    k = 0
    most = min(len(e1), len(e2))
    while k < most and e1[-1 - k] == -e2[k]:
        k += 1
    rest = e1[:len(e1) - k] + e2[k:]
    if not rest:
        return trivial_walk(w1.graph, w1.target_vertex)
    return Walk._trusted(w1.graph, rest)


# --- enumeration -----------------------------------------------------------


def _successors(g):
    """The edges that may follow each oriented edge, in the chain order at
    its source."""
    after = {}
    for i in g.oriented_edges():
        after[i] = [j for j in map(g.oriented_with_target,
                                   g.chains[g.s_half(i)[0]])
                    if j != -i]
    return after


def enumerate_reduced_walks(g, max_len):
    """All reduced walks with 1..max_len edges in the preorder that
    derived.enumerate_perfect_classes searches: each walk comes just before
    its extensions by one edge, in the chain order at its source vertex."""
    if max_len < 1:
        raise ValueError("walk length bound must be at least 1, got %d" % max_len)
    after = _successors(g)
    out = []
    stack = [(i,) for i in reversed(g.oriented_edges())]
    while stack:
        edges = stack.pop()
        out.append(Walk._trusted(g, edges))
        if len(edges) < max_len:
            stack.extend(edges + (j,) for j in reversed(after[edges[-1]]))
    return out


def enumerate_belts(g, max_core_len):
    """Belts with core length up to the bound, one representative per
    rotation class of the core (inverses are kept: they are genuinely
    different belts)."""
    belts = []
    seen = set()
    for w in enumerate_reduced_walks(g, max_core_len):
        if w.length < 2 or not w.closed:
            continue
        cand = Walk._trusted(g, w.edges + (w.edges[0],))
        if not is_belt(cand):
            continue
        # the core of the belt is w itself
        key = min(w.edges[k:] + w.edges[:k] for k in range(w.length))
        if key in seen:
            continue
        seen.add(key)
        belts.append(cand)
    return belts

