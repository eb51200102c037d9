"""Indecomposable perfect complexes encoded as walks.

A reduced walk on the marked ribbon graph of a gentle quiver describes a
complex of projectives: one term per walk edge, placed at the cumulative
junction degree, with maps labelled by the permitted paths crossed at each
junction.  Belts (closed walks with a vanishing degree around the seam)
describe one-parameter families; only the fiber dimension of the companion
automorphism enters any invariant computed here, so it is kept as a number.
Classes in the Grothendieck group are signed incidence vectors of walks, and
almost split triangles are read off the extensions of a walk by anti-walks.
"""

from collections import Counter
from itertools import accumulate
from operator import mul

from .errors import BoundTooLarge, InternalMismatch, TrivialInput
from .exact_linalg import short_vectors
from .invariants import _anti_walks, euler_analysis
from .quiver import per_quiver
from .ribbon import to_ribbon
from .walks import (NotReduced, Walk, _successors, classify_walk,
                    connecting_path, incidence_vector, reduced_concat)


class StringComplex:
    """The complex of a walk on to_ribbon(gq), shifted by m.  It is its
    shift and its walk: terms and maps are unfolded from the walk each time
    they are read."""

    __slots__ = ("gq", "m", "walk")

    def __init__(self, gq, m, walk):
        self.gq = gq
        self.m = m
        self.walk = walk

    def _junctions(self):
        """(degree, chain steps) at each junction, by connecting_path."""
        w = self.walk
        return [connecting_path(w.graph, w.edges[t], w.edges[t + 1])
                for t in range(len(w.edges) - 1)]

    @property
    def terms(self):
        """(cohomological degree, projective id), one per walk edge."""
        degrees = accumulate((d for d, _ in self._junctions()), initial=self.m)
        return tuple(zip(degrees, map(abs, self.walk.edges)))

    @property
    def maps(self):
        """(from term, to term, path, reversed), one per junction."""
        maps = []
        for t, (d, steps) in enumerate(self._junctions()):
            path = tuple(self.gq.arrow_at[h] for h in steps)
            maps.append((t, t + 1, path, False) if d > 0
                        else (t + 1, t, path, True))
        return tuple(maps)

    def __repr__(self):
        return "StringComplex(m=%d, %s)" % (self.m, self.walk.render())


class BandComplex:
    __slots__ = ("m", "belt", "d")

    def __init__(self, m, belt, d):
        if classify_walk(belt) != "belt":
            raise ValueError("band complexes need a belt, got %s"
                             % classify_walk(belt))
        if not isinstance(d, int) or d < 1:
            raise ValueError("fiber dimension must be a positive integer")
        self.m = m
        self.belt = belt
        self.d = d

    def __repr__(self):
        return "BandComplex(m=%d, %s, d=%d)" % (self.m, self.belt.render(),
                                                self.d)


def build_string_complex(gq, m, w):
    """The complex of (m, w); a trivial walk gives the zero complex.  A
    nontrivial walk must live on to_ribbon(gq) itself and be reduced: a
    backtracking junction raises NotReduced.  Both checks run here, so
    reading terms and maps later raises nothing."""
    if not w.trivial:
        if w.graph is not to_ribbon(gq):
            raise ValueError("walk is not on the quiver's own graph; take "
                             "walks on to_ribbon(gq)")
        if not w.reduced:
            raise NotReduced("backtracking junction")
    return StringComplex(gq, m, w)


def k0_class(x):
    """Class in the projectives basis: the signed incidence vector of the
    walk, or d times that of the belt's core, with sign (-1)^m.  Term t sits
    in degree congruent to m + t, since every junction shifts the degree by
    one, so this is the alternating sum of the terms."""
    if isinstance(x, StringComplex):
        sign = -1 if x.m % 2 else 1
        return tuple(sign * v for v in incidence_vector(x.walk))
    if isinstance(x, BandComplex):
        core = Walk._trusted(x.belt.graph, x.belt.edges[:-1])
        sign = -1 if x.m % 2 else 1
        return tuple(sign * x.d * v for v in incidence_vector(core))
    raise TypeError("expected a string or band complex")


# --- root classification (values of the Euler form) ------------------------


class RootClassification:
    __slots__ = ("value", "tag", "note")

    def __init__(self, value, tag, note):
        self.value = value
        self.tag = tag
        self.note = note

    def __repr__(self):
        return "RootClassification(%s, q=%d)" % (self.tag, self.value)


_ROOT_NOTES = {
    "0-root": "class of a band complex or of a string complex over a closed "
              "walk of even length, when such a walk exists",
    "1-root": "class of a string complex over a reduced open walk, when such "
              "a walk exists",
    "2-root": "class of a string complex over a closed walk of odd length, "
              "when such a walk exists",
    "other": "not the class of any indecomposable perfect complex",
}


_ROOT_TAGS = {0: "0-root", 1: "1-root", 2: "2-root"}


def root_tag(value):
    """The root tag of a value of the Euler form q."""
    return _ROOT_TAGS.get(value, "other")


def root_classify(gq, x):
    """q(x) and its root tag, for x in the projectives basis.

    q is read off y = B^tr x, with B the edge-by-vertex incidence matrix of
    to_ribbon(gq): each entry of x adds to the entries of y at its edge's
    two ends, twice at a loop's one end, and q(x) = |y|^2 / 2.  That costs
    one pass over x and one over y.  It is exact because euler_analysis,
    called here, checks that the Gram matrix C + C^tr is B B^tr.  The Gram
    matrix route, qform_eval, stays the independent one: cli._check_one
    compares it with walk_q_value on every walk it checks.
    """
    euler_analysis(gq)      # checks C + C^tr = B B^tr
    g = to_ribbon(gq)
    # the two end vertex indices of each edge: the nonzero columns of its
    # row of B, a loop's one column listed twice
    ends = g._edge_ends
    if len(x) != len(ends):
        raise ValueError("vector length %d != %d quiver vertices"
                         % (len(x), len(ends)))
    y = [0] * len(g.vertices)
    for (u, v), xi in zip(ends, x):
        if xi:
            y[u] += xi
            y[v] += xi
    val = sum(map(mul, y, y)) // 2
    tag = root_tag(val)
    return RootClassification(val, tag, _ROOT_NOTES[tag])


# --- class enumeration ------------------------------------------------------


class PerfectClasses:
    __slots__ = ("classes", "positive", "value_counts", "values")

    def __init__(self, classes, positive, value_counts, values):
        self.classes = classes
        self.positive = positive
        self.value_counts = value_counts
        self.values = values         # class -> value of the Euler form q


# walk counts grow exponentially with the length bound
WALK_LENGTH_LIMIT = 10


def walk_q_value(walk):
    """q on the class of a reduced walk, read off its ends.  With B the
    edge-by-vertex incidence matrix, B^tr inc(w) = e_target +
    (-1)^(len w - 1) e_source, because the two terms at each junction cancel
    (a loop's 2 in B is one count per end); euler_analysis checks gram =
    B B^tr, so q = |B^tr inc(w)|^2 / 2 is 1 on an open walk and 2 or 0 on a
    closed walk of odd or even length."""
    if not walk.closed:
        return 1
    return 2 if walk.length % 2 else 0


def enumerate_perfect_classes(gq, max_len):
    """The string-complex classes of reduced walks up to max_len, or every
    class when max_len is None, with both overall signs (the sign is the
    parity of the shift).  A class is witnessed by the first walk to reach
    it in the preorder of walks.enumerate_reduced_walks.

    A walk's class is its prefix's class with one signed entry changed, and
    q on a new class is walk_q_value of its witness.

    The search runs in that preorder.  What a walk's extensions reach
    depends only on its state (its last oriented edge and its class, whose
    entries sum to the length's parity) and the length left.  A walk is
    skipped when the search below an earlier walk in its state has finished
    with at least as much length left: that search reached every class the
    skipped walk would, and earlier, so no witness changes.  So a state is
    recorded when its search finishes, never on entry.

    max_len=None searches to length 2n + 2, which reaches every class of a
    positive form; on any other form, which has infinitely many classes, it
    raises BoundTooLarge.  From that length on, a positive form's classes
    are checked against the form: n^2 + n are nonzero, or 2n^2 when it is
    not bipartite; those with q = 1 are its short vectors; and none, or 2n,
    have q = 2.  An integer max_len may not exceed WALK_LENGTH_LIMIT.
    """
    if max_len is not None:
        if max_len > WALK_LENGTH_LIMIT:
            raise BoundTooLarge("walk length bound %d exceeds the limit %d"
                                % (max_len, WALK_LENGTH_LIMIT))
        if max_len < 1:
            raise ValueError("walk length bound must be at least 1, got %d"
                             % max_len)
    g = to_ribbon(gq)
    ea = euler_analysis(gq)
    n = len(gq.vertices)
    # gram is B B^tr, so semidefinite: it is definite iff it is nonsingular
    positive = ea.corank == 0
    if max_len is None and not positive:
        raise BoundTooLarge("the form has corank %d, so its classes are "
                            "infinitely many" % ea.corank)
    length = 2 * n + 2 if max_len is None else max_len

    # each walk adds its class with both signs, so a class is new exactly
    # when its negative is
    classes = {}
    values = {}
    edge_index = g.edge_index
    after = _successors(g)
    # the most length left with which the search below a state finished
    done = {}
    path = [None] * length
    zero = (0,) * n
    # an entry (state, 0, left) marks where the search below a walk finishes
    stack = [(i, 1, zero) for i in reversed(g.oriented_edges())]
    while stack:
        e, k, base = stack.pop()
        if k == 0:
            done[e] = base
            continue
        i = edge_index[abs(e)]
        vec = base[:i] + (base[i] + (1 if k % 2 else -1),) + base[i + 1:]
        left = length - k
        if left and done.get((e, vec), -1) >= left:
            continue
        path[k - 1] = e
        if vec not in classes:
            w = Walk._trusted(g, tuple(path[:k]))
            neg = tuple(-v for v in vec)
            classes[vec] = (0, w)
            classes.setdefault(neg, (1, w))
            values[vec] = values[neg] = walk_q_value(w)
        if left:
            stack.append(((e, vec), 0, left))
            stack.extend((j, k + 1, vec) for j in after[e])
    value_counts = dict(Counter(values.values()))

    bipartite = ea.nabla == 1
    if positive and length >= 2 * n + 2:
        expected = n * n + n if bipartite else 2 * n * n
        nonzero = len(classes) - (zero in classes)
        if nonzero != expected:
            raise InternalMismatch("found %d nonzero classes, expected %d"
                                   % (nonzero, expected))
        roots = {y for x in short_vectors(ea.gramProjectives, 2)
                 for y in (x, tuple(-v for v in x))}
        if roots != {vec for vec, val in values.items() if val == 1}:
            raise InternalMismatch("1-roots differ from the short vectors")
        if value_counts.get(2, 0) != (0 if bipartite else 2 * n):
            raise InternalMismatch("2-root counts disagree")
    return PerfectClasses(classes, positive, value_counts, values)


# --- Auslander-Reiten translation -------------------------------------------


@per_quiver
def _inverse_anti_walks(gq):
    """The inverse of the anti-walk at each vertex of to_ribbon(gq)."""
    return {v: w.inverse() for v, w in _anti_walks(gq).items()}


class ARTriangle:
    __slots__ = ("start", "middle", "end", "shift")

    def __init__(self, start, middle, end, shift):
        self.start = start
        self.middle = tuple(middle)
        self.end = end
        self.shift = shift

    def __repr__(self):
        return "ARTriangle(%r -> %s -> %r)" % (
            self.start, " + ".join(repr(s) for s in self.middle) or "0",
            self.end)


def ar_translate(gq, m, w):
    """Almost split triangle starting at the complex of (m, w), for a
    nontrivial walk checked by build_string_complex.  w is extended on the
    left by the inverse anti-walk at its target, whose length less two is
    the shift, on the right by the anti-walk at its source, and on both
    sides.  The anti-walks and their inverses are tabled once per quiver.
    The extensions are reduced walks on to_ribbon(gq) by construction, so
    their complexes skip the checks."""
    if w.trivial:
        raise TrivialInput("translation extensions need a nontrivial walk")
    start = build_string_complex(gq, m, w)
    to_target = _inverse_anti_walks(gq)[w.target_vertex]
    at_source = _anti_walks(gq)[w.source_vertex]
    left = reduced_concat(to_target, w)
    right = reduced_concat(w, at_source)
    both = reduced_concat(left, at_source)
    if both.trivial:
        raise InternalMismatch("two-sided extension collapsed")
    if left.trivial and right.trivial:
        raise InternalMismatch("both one-sided extensions collapsed")
    shift = to_target.length - 2
    middle = []
    if not left.trivial:
        middle.append(StringComplex(gq, m + shift, left))
    if not right.trivial:
        middle.append(StringComplex(gq, m, right))
    return ARTriangle(start, middle, StringComplex(gq, m + shift, both), shift)
