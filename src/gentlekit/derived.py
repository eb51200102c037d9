"""Indecomposable perfect complexes encoded as walks.

A reduced walk on the marked ribbon graph of a gentle quiver describes a
complex of projectives: one term per walk edge, placed at the cumulative
junction degree, with maps labelled by the permitted paths crossed at each
junction.  Belts (closed walks with a vanishing degree around the seam)
describe one-parameter families; only the fiber dimension of the companion
automorphism enters any invariant computed here, so it is kept as a number.
Classes in the Grothendieck group are signed incidence vectors of walks, and
almost split triangles are read off the walk extensions of plus_ops.
"""

from collections import Counter

from .errors import BoundTooLarge, InternalMismatch
from .exact_linalg import qform_eval, root_counts
from .invariants import euler_analysis
from .ribbon import to_ribbon
from .walks import (Walk, classify_walk, connecting_path,
                    enumerate_reduced_walks, incidence_vector, plus_ops)


class StringComplex:
    __slots__ = ("m", "walk", "terms", "maps")

    def __init__(self, m, walk, terms, maps):
        self.m = m
        self.walk = walk
        self.terms = tuple(terms)    # (cohomological degree, projective id)
        self.maps = tuple(maps)      # (from term, to term, path, reversed)

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
    """Unfold a reduced walk into terms and maps; trivial walks give the
    zero complex.  connecting_path raises NotReduced at a backtracking
    junction."""
    if w.trivial:
        return StringComplex(m, w, (), ())
    g = to_ribbon(gq)
    # junction steps are chain positions, so the walk must live on the
    # graph rebuilt from the quiver, not merely an isomorphic copy
    if w.graph is not g and (w.graph.vertices != g.vertices
                             or w.graph.edge_halves != g.edge_halves):
        raise ValueError("walk graph does not match the quiver's own graph; "
                         "take walks on to_ribbon(gq)")
    terms = [(m, w.edges[0][0])]
    maps = []
    for t in range(len(w.edges) - 1):
        d, steps = connecting_path(w.graph, w.edges[t], w.edges[t + 1])
        terms.append((terms[-1][0] + d, w.edges[t + 1][0]))
        path = tuple(gq.arrow_at[h] for h in steps)
        if d > 0:
            maps.append((t, t + 1, path, False))
        else:
            maps.append((t + 1, t, path, True))
    return StringComplex(m, w, terms, maps)


def k0_class(x):
    """Class in the projectives basis: the signed incidence vector of the
    walk, or d times that of the belt's core, with sign (-1)^m.  Term t sits
    in degree congruent to m + t, since every junction shifts the degree by
    one, so this is the alternating sum of the terms."""
    if isinstance(x, StringComplex):
        sign = (-1) ** x.m
        return tuple(sign * v for v in incidence_vector(x.walk))
    if isinstance(x, BandComplex):
        core = Walk._trusted(x.belt.graph, x.belt.edges[:-1])
        sign = (-1) ** x.m
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


def root_tag(value):
    """The root tag of a value of the Euler form q."""
    return {0: "0-root", 1: "1-root", 2: "2-root"}.get(value, "other")


def root_classify(gq, x):
    val = qform_eval(euler_analysis(gq).gramProjectives, x)
    tag = root_tag(val)
    return RootClassification(val, tag, _ROOT_NOTES[tag])


# --- class enumeration ------------------------------------------------------


class PerfectClasses:
    __slots__ = ("classes", "positive", "saturated", "expected_nonzero",
                 "value_counts", "values")

    def __init__(self, classes, positive, saturated, expected_nonzero,
                 value_counts, values):
        self.classes = classes
        self.positive = positive
        self.saturated = saturated
        self.expected_nonzero = expected_nonzero
        self.value_counts = value_counts
        self.values = values         # class -> value of the Euler form q

    def sorted_classes(self):
        return sorted(self.classes)


# walk counts grow exponentially with the length bound
WALK_LENGTH_LIMIT = 10


def enumerate_perfect_classes(gq, max_len=10, verify_root_counts=False):
    """All string-complex classes realized by reduced walks up to max_len.

    Each walk contributes its incidence vector with both overall signs
    (the sign is the parity of the shift).  The walks come in preorder, so
    the last walk one edge shorter is a walk's prefix, and its class is the
    prefix's class with one signed entry changed.  The value of q on a new
    class is read off its first walk w.  With B the edge-by-vertex
    incidence matrix, B^tr inc(w) = e_target + (-1)^(len w - 1) e_source,
    because the two terms at each junction cancel (a loop's 2 in B is one
    count per end); euler_analysis checks gram = B B^tr, so q =
    |B^tr inc(w)|^2 / 2 is 1 on an open walk and 2 or 0 on a closed walk
    of odd or even length.

    For a positive form the class set saturates no later than walk length
    2n + 2; verify_root_counts additionally checks the saturated counts and
    the value distribution against a short-vector enumeration of the form
    itself.  max_len may not exceed WALK_LENGTH_LIMIT.
    """
    if max_len > WALK_LENGTH_LIMIT:
        raise BoundTooLarge("walk length bound %d exceeds the limit %d"
                            % (max_len, WALK_LENGTH_LIMIT))
    g = to_ribbon(gq)
    ea = euler_analysis(gq)
    gram = ea.gramProjectives
    n = len(gq.vertices)
    # gram is B B^tr, so semidefinite: it is definite iff it is nonsingular
    positive = ea.corank == 0

    length = max_len
    if positive and verify_root_counts:
        length = max(max_len, 2 * n + 2)
    # each walk adds its class with both signs, so a class is new exactly
    # when its negative is
    classes = {}
    values = {}
    edge_index = g.edge_index
    # prefix[k] is the class of the last walk of length k seen
    prefix = [(0,) * n] * (length + 1)
    for w in enumerate_reduced_walks(g, length):
        k = len(w.edges)
        base = prefix[k - 1]
        i = edge_index[w.edges[-1][0]]
        vec = base[:i] + (base[i] + (1 if k % 2 else -1),) + base[i + 1:]
        prefix[k] = vec
        if vec in classes:
            continue
        neg = tuple(-v for v in vec)
        classes[vec] = (0, w)
        classes.setdefault(neg, (1, w))
        if w.closed:
            values[vec] = values[neg] = 2 if k % 2 else 0
        else:
            values[vec] = values[neg] = 1
    value_counts = dict(Counter(values.values()))

    expected = None
    saturated = None
    if positive:
        expected = n * n + n if ea.nabla == 1 else 2 * n * n
        if verify_root_counts:
            nonzero = sum(cnt for val, cnt in value_counts.items()
                          if val > 0)
            saturated = nonzero == expected
            if not saturated:
                raise InternalMismatch(
                    "found %d nonzero classes, expected %d" % (nonzero,
                                                               expected))
            oracle = root_counts(gram, up_to=1)
            if ea.nabla == 1:
                if value_counts.get(1, 0) != expected or oracle[1] != expected:
                    raise InternalMismatch("1-root counts disagree")
            else:
                short = 2 * (n * n - n)
                if value_counts.get(1, 0) != short or oracle[1] != short:
                    raise InternalMismatch("1-root counts disagree")
                # the box count of q = 2 vectors exceeds the class count as
                # soon as orthogonal 1-roots can be summed, so only the
                # walk side is pinned down
                if value_counts.get(2, 0) != 2 * n:
                    raise InternalMismatch("2-root counts disagree")
    return PerfectClasses(classes, positive, saturated, expected, value_counts,
                          values)


# --- Auslander-Reiten translation -------------------------------------------


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
    """Almost split triangle starting at the complex of (m, w); plus_ops
    rejects a walk that is not reduced."""
    ops = plus_ops(w)
    start = build_string_complex(gq, m, w)
    middle = []
    if not ops.left_plus.trivial:
        middle.append(build_string_complex(gq, m + ops.m_shift, ops.left_plus))
    if not ops.right_plus.trivial:
        middle.append(build_string_complex(gq, m, ops.right_plus))
    end = build_string_complex(gq, m + ops.m_shift, ops.both_plus)
    return ARTriangle(start, middle, end, ops.m_shift)
