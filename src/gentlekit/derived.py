"""Indecomposable perfect complexes encoded as walks.

A reduced walk on the marked ribbon graph of a gentle quiver describes a
complex of projectives: one term per walk edge, placed at the cumulative
junction degree, with maps labelled by the permitted paths crossed at each
junction.  Belts (closed walks with a vanishing degree around the seam)
describe one-parameter families; only the fiber dimension of the companion
automorphism enters any invariant computed here, so it is kept as a number.
Classes in the Grothendieck group are signed incidence vectors of walks, and
almost split triangles are read off the extensions of a walk by anti-walks.
The class search keeps each class as one packed int while it runs and
decodes the classes it found to tuples at the end.
"""

from array import array
from collections import Counter, namedtuple
from itertools import accumulate
from operator import mul, neg

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
        vec = incidence_vector(x.walk)
        return tuple(map(neg, vec)) if x.m % 2 else vec
    if isinstance(x, BandComplex):
        core = Walk._trusted(x.belt.graph, x.belt.edges[:-1])
        sign = -1 if x.m % 2 else 1
        return tuple(sign * x.d * v for v in incidence_vector(core))
    raise TypeError("expected a string or band complex")


# --- root classification (values of the Euler form) ------------------------


RootClassification = namedtuple("RootClassification", ("value", "tag", "note"))


# the record of each root value, shared by every class with that value
_ROOTS = {
    0: RootClassification(0, "0-root", "class of a band complex or of a "
                          "string complex over a closed walk of even length, "
                          "when such a walk exists"),
    1: RootClassification(1, "1-root", "class of a string complex over a "
                          "reduced open walk, when such a walk exists"),
    2: RootClassification(2, "2-root", "class of a string complex over a "
                          "closed walk of odd length, when such a walk "
                          "exists"),
}


def root_tag(value):
    """The root tag of a value of the Euler form q."""
    root = _ROOTS.get(value)
    return root.tag if root else "other"


def root_classify(gq, x):
    """q(x) and its root tag, for x in the projectives basis.

    q is read off y = B^tr x, with B the edge-by-vertex incidence matrix of
    to_ribbon(gq): each entry of x adds to the entries of y at its edge's
    two ends, twice at a loop's one end, and q(x) = |y|^2 / 2.  That costs
    one pass over x and one over y.  It is exact because euler_analysis,
    called here, checks that the Gram matrix C + C^tr is B B^tr.  The Gram
    matrix route, qform_eval, stays the independent one: cli._check_one
    compares it with walk_q_value on every walk it checks.  Every class
    with q = 0, 1 or 2 gets the one shared record of that value.
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
    return _ROOTS.get(val) or RootClassification(
        val, "other", "not the class of any indecomposable perfect complex")


# --- class enumeration ------------------------------------------------------


# values maps each class to its value of the Euler form q
PerfectClasses = namedtuple("PerfectClasses", (
    "classes", "positive", "value_counts", "values"))


# walk counts grow exponentially with the length bound
WALK_LENGTH_LIMIT = 10


def walk_q_value(walk):
    """q on the class of a reduced walk, read off its ends.  With B the
    edge-by-vertex incidence matrix, B^tr inc(w) = e_target +
    (-1)^(len w - 1) e_source, because the two terms at each junction cancel
    (a loop's 2 in B is one count per end); euler_analysis checks gram =
    B B^tr, so q = |B^tr inc(w)|^2 / 2 is 1 on an open walk and 2 or 0 on a
    closed walk of odd or even length.  The ends are the vertices of the
    last edge's source half and the first edge's target half; a trivial
    walk has class 0."""
    e = walk.edges
    if not e:
        return 0
    head = walk.graph._head
    if head[-e[-1]][0] != head[e[0]][0]:
        return 1
    return 2 if len(e) % 2 else 0


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

    While the search runs, a class is one int, its code: entry i plus 128
    fills the byte from bit 8 i.  A byte holds every entry, so no field
    overflows or borrows.  At an integer bound an entry changes by one per
    step, so |entry| <= max_len <= WALK_LENGTH_LIMIT = 10.  At max_len=None
    the form is positive, so to_ribbon(gq) is a tree or has one odd cycle,
    and y = B^tr x determines x: each entry of x is a sum of entries of y
    with coefficients in [-1, 1].  On a walk class y = e_target +- e_source
    (see walk_q_value), so every entry lies in [-2, 2].  So a step adds or
    subtracts one int, the negative of a class is 2 zero - code, with zero
    the code of the zero class, and a state is the code plus the last
    edge's rank above the fields.  The search keeps one iterator per depth
    over the extensions of the walk at that depth, in chain order, and
    records the walk's state when that iterator runs out.  Each new +-
    pair of classes is decoded to tuples once, after the search.

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

    zero = sum(1 << (8 * i + 7) for i in range(n))
    negate = 2 * zero
    # each oriented edge e as (e, class code step, rank above the fields),
    # with the step's sign at an odd and at an even length
    oriented = g.oriented_edges()
    signed = ({}, {})
    for r, e in enumerate(oriented):
        step = 1 << (8 * g.edge_index[abs(e)])
        signed[0][e] = (e, step, r << (8 * n))
        signed[1][e] = (e, -step, r << (8 * n))
    after = _successors(g)
    # the extensions of a walk ending in e, to an odd and to an even length
    extend = [{e: [table[j] for j in after[e]] for e in oriented}
              for table in signed]
    # the most length left with which the search below a state finished
    done = {}
    # each walk adds its class with both signs, so a class is new exactly
    # when its negative is: seen holds both codes, new the first of a pair
    seen = {}
    new = []
    path = [None] * length
    # todo[k], codes[k] and states[k] belong to the walk path[:k]: the
    # iterator over its extensions, its class and its state
    todo = [None] * length
    codes = [None] * length
    states = [None] * length
    k, it, base = 0, iter([signed[0][e] for e in oriented]), zero
    while True:
        left = length - k - 1
        for e, step, rank in it:
            code = base + step
            if left:
                state = code + rank
                if state in done and done[state] >= left:
                    continue
            path[k] = e
            if code not in seen:
                seen[code] = seen[negate - code] = Walk._trusted(
                    g, tuple(path[:k + 1]))
                new.append(code)
            if left:
                todo[k], codes[k] = it, base
                k += 1
                states[k] = state
                it, base = iter(extend[k % 2][e]), code
                break
        else:
            if not k:
                break
            done[states[k]] = length - k
            k -= 1
            it, base = todo[k], codes[k]

    # decode every new class and its negative in one array: xor with zero
    # turns each offset field into its entry in two's complement
    fields = array("b", b"".join(
        [(c ^ zero).to_bytes(n, "little") + ((negate - c) ^ zero).to_bytes(
            n, "little") for c in new]))
    # n entries at a time: a class, then its negative
    vecs = zip(*[iter(fields)] * n)
    classes = {}
    values = {}
    for code, vec, minus in zip(new, vecs, vecs):
        w = seen[code]
        classes[vec] = (0, w)
        classes.setdefault(minus, (1, w))
        values[vec] = values[minus] = walk_q_value(w)
    value_counts = dict(Counter(values.values()))

    bipartite = ea.nabla == 1
    if positive and length >= 2 * n + 2:
        expected = n * n + n if bipartite else 2 * n * n
        nonzero = len(classes) - ((0,) * n in classes)
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


ARTriangle = namedtuple("ARTriangle", ("start", "middle", "end", "shift"))


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
    return ARTriangle(start, tuple(middle),
                      StringComplex(gq, m + shift, both), shift)
