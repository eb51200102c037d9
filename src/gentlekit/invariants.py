"""Derived invariants assembled from the combinatorial structures.

Everything here is exact integer arithmetic.  Wherever a quantity is
computable along two genuinely different routes (bipartiteness vs sign
bookkeeping, face enumeration vs thread-orbit pairing, characteristic
polynomial vs the face product formula) both are computed and compared;
a disagreement raises InternalMismatch since it can only mean a bug.
"""

from collections import Counter, namedtuple

from .errors import InternalMismatch
from .exact_linalg import IntMatrix, IntPolynomial, char_poly, det, rank_corank
from .quiver import cartan_matrix, connected, cycles, per_quiver
from .ribbon import (forbidden_ribbon, incidence_matrix, is_bipartite,
                     to_ribbon)
from .walks import anti_walk, faces, incidence_vector


@per_quiver
def ribbon_faces(gq):
    """faces(to_ribbon(gq)), computed once per quiver."""
    return faces(to_ribbon(gq))


@per_quiver
def _anti_walks(gq):
    """The anti-walk at each vertex of to_ribbon(gq), in vertex order,
    computed once per quiver."""
    g = to_ribbon(gq)
    return {v: anti_walk(g, v) for v in g.vertices}


# The simples-basis fields, gramSimples (an IntMatrix), dynkinSimples (a str),
# unitInSimples and connectedInSimples (bools), are None at infinite global
# dimension.
EulerAnalysis = namedtuple("EulerAnalysis", (
    "gramProjectives", "gramSimples", "nabla", "rank", "corank",
    "dynkinProjectives", "dynkinSimples", "unitInProjectives",
    "unitInSimples", "connectedInSimples"))


def multi_clock(gq):
    """1 when the threads admit alternating directions, else 0.

    Each quiver vertex forces its two covering thread positions to carry
    opposite directions; solvability is checked by a parity union-find,
    independent of the graph two-coloring route.
    """
    parent = {}
    par = {}

    def find(x):
        acc = 0
        while parent[x] != x:
            acc ^= par[x]
            x = parent[x]
        return x, acc

    for th in gq.permitted:
        parent[th.index] = th.index
        par[th.index] = 0
    for v in gq.vertices:
        (t1, _), (t2, _) = gq.halves_at[v]
        r1, p1 = find(t1)
        r2, p2 = find(t2)
        if r1 == r2:
            if p1 == p2:
                return 0
        else:
            parent[r1] = r2
            par[r1] = p1 ^ p2 ^ 1
    return 1


def _dynkin_tag(unit, nabla, rank, two_v_minus_a):
    if unit:
        if nabla == 1:
            return "A%d" % rank
        return "D%d" % rank if two_v_minus_a >= 4 else "A%d" % rank
    if nabla != 0:
        raise InternalMismatch("non-unit form with nabla = 1")
    return "C%d" % rank if rank >= 2 else "HalfA1"


@per_quiver
def _transpose_and_incidence(gq):
    """C^tr and the incidence matrix B of to_ribbon(gq), built once per
    quiver for euler_analysis and coxeter."""
    return cartan_matrix(gq).transpose(), incidence_matrix(to_ribbon(gq))


@per_quiver
def euler_analysis(gq):
    """The Euler form in the projectives basis (C + C^tr) and, for finite
    global dimension, in the simples basis, with rank and Dynkin data.

    Both Gram matrices are built as B B^tr from an incidence matrix B, so
    they are non-negative: x^tr B B^tr x = |B^tr x|^2.  The same identity
    gives B B^tr x = 0 exactly when B^tr x = 0, so the rank is read off
    B^tr, one row per graph vertex and at most two nonzeros per column,
    and not off the dense Gram matrix.
    """
    nv = len(gq.vertices)
    na = len(gq.arrows)
    c = cartan_matrix(gq)
    c_tr, inc = _transpose_and_incidence(gq)
    gram = c + c_tr
    g = to_ribbon(gq)
    inc_tr = inc.transpose()
    if inc * inc_tr != gram:
        raise InternalMismatch("Gram matrix differs from incidence product")

    nabla = 1 if is_bipartite(g) else 0
    if nabla != multi_clock(gq):
        raise InternalMismatch("bipartiteness and direction parity disagree")
    rank, corank = rank_corank(inc_tr)
    if corank != na - nv + nabla:
        raise InternalMismatch("corank off the predicted value")

    unit_p = all(gram.rows[i][i] == 2 for i in range(nv))
    dyn_p = _dynkin_tag(unit_p, nabla, rank, 2 * nv - na)

    gram_s = None
    unit_s = None
    conn_s = None
    dyn_s = None
    if gq.global_dimension_finite:
        fr = forbidden_ribbon(gq)
        inc_hat = incidence_matrix(fr.graph, fr.sigma_hat)
        gram_s = inc_hat * inc_hat.transpose()
        if c * gram_s * c_tr != gram:
            raise InternalMismatch("simples Gram fails the base-change identity")
        unit_s = all(gram_s.rows[i][i] == 2 for i in range(nv))
        conn_s = connected(range(nv), [(i, j) for i, row in enumerate(gram_s.rows)
                                        for j, x in enumerate(row) if x])
        if not conn_s:
            dyn_s = "Disconnected"
        else:
            dyn_s = _dynkin_tag(unit_s, nabla, rank, 2 * nv - na)

    return EulerAnalysis(gram, gram_s, nabla, rank, corank, dyn_p, dyn_s,
                         unit_p, unit_s, conn_s)


# --- AAG invariant ---------------------------------------------------------


class AAGInvariant:
    """Multiset of pairs (n, m) with multiplicities."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = Counter(pairs)

    def __eq__(self, other):
        return isinstance(other, AAGInvariant) and self.pairs == other.pairs

    def __hash__(self):
        return hash(frozenset(self.pairs.items()))

    def __str__(self):
        bits = []
        for (n, m), cnt in sorted(self.pairs.items()):
            bits.append("(%d,%d)" % (n, m) + ("x%d" % cnt if cnt > 1 else ""))
        return "{" + ", ".join(bits) + "}"

    def __repr__(self):
        return "AAGInvariant(%s)" % self


def _pair_ends(left, right, end, end_arrow):
    """Map each thread on the left to the thread on the right with the same
    end vertex (end is "source" or "target") and a different end arrow.

    With p(v) the permitted pairs of arrows through v, permitted threads
    end at v in(v) - p(v) times on an arrow and 2 - in(v) - out(v) + p(v)
    times trivially: 2 - out(v) times in all.  Forbidden threads, with
    forbidden pairs, end there as often, and relation cycles have no end.
    So two end at v only at a sink, where both kinds end on {a, b} or on
    {a, None}, and exactly one candidate's end arrow differs.  Starts
    mirror this at sources, 2 - in(v) of each kind.
    """
    at = {}
    for th in right:
        at.setdefault(getattr(th, end), []).append(th)
    match = {}
    for th in left:
        cands = at[getattr(th, end)]
        match[id(th)] = (cands[1] if len(cands) == 2
                         and end_arrow(cands[0]) == end_arrow(th) else cands[0])
    return match


def _orbit_pairs(gq):
    """The (n, m) pairs read off thread orbits instead of faces.

    A permitted thread is followed by the forbidden thread sharing its
    target but not its last arrow, which is followed by the permitted
    thread sharing the forbidden thread's source but not its first arrow;
    orbits of the composite contribute (orbit size, total forbidden length).
    Relation cycles contribute (0, length) each.
    """
    to_forb = _pair_ends(gq.permitted, gq.forbidden, "target",
                         lambda th: th.terminating_arrow)
    to_perm = _pair_ends(gq.forbidden, gq.permitted, "source",
                         lambda th: th.initial_arrow)
    # both maps are injective and total, so their composite permutes the
    # permitted threads
    pairs = [(len(orbit), sum(to_forb[id(th)].length for th in orbit))
             for orbit in cycles(gq.permitted,
                                 lambda th: to_perm[id(to_forb[id(th)])])]
    for cyc in gq.full_cycles:
        pairs.append((0, len(cyc)))
    return pairs


@per_quiver
def aag_invariant(gq):
    """Face route cross-checked against the thread-orbit route."""
    via_faces = AAGInvariant(f.pair for f in ribbon_faces(gq))
    via_orbits = AAGInvariant(_orbit_pairs(gq))
    if via_faces != via_orbits:
        raise InternalMismatch("face route %s != orbit route %s"
                               % (via_faces, via_orbits))
    return via_faces


# --- Coxeter transformation ------------------------------------------------


@per_quiver
def coxeter(gq):
    """(matrix, characteristic polynomial) of the Coxeter transformation.

    The matrix is I - J J^tr C^tr with J the column matrix of anti-walk
    incidence vectors, and C^tr J = B is verified.  Its inverse is
    I - J J^tr C: with C + C^tr = B B^tr, which euler_analysis verifies,
    the product of the two is I - J J^tr (C + C^tr - B B^tr) = I.  At
    finite global dimension C is invertible and C * Psi = -C^tr follows:
    X = J J^tr has C^tr X C = C + C^tr, so X = C^-tr + C^-1 and
    C X C^tr = C + C^tr.
    """
    euler_analysis(gq)      # checks C + C^tr = B B^tr
    c_tr, inc = _transpose_and_incidence(gq)
    j_hat = IntMatrix.from_columns(
        [incidence_vector(w) for w in _anti_walks(gq).values()])
    if c_tr * j_hat != inc:
        raise InternalMismatch("anti-walk matrix fails the incidence identity")
    n = len(gq.vertices)
    # J has one sparse anti-walk column per graph vertex, so J (J^tr C^tr)
    # is two sparse products, where (J J^tr) C^tr multiplies a dense n x n
    # matrix by C^tr
    psi = IntMatrix.identity(n) - j_hat * (j_hat.transpose() * c_tr)

    poly = char_poly(psi)
    aag = aag_invariant(gq)
    prod = IntPolynomial.const(1)
    for (nn, mm), cnt in sorted(aag.pairs.items()):
        if nn == 0:
            continue
        sign = -1 if (nn + mm) % 2 else 1
        factor = IntPolynomial.monomial(nn) - IntPolynomial.const(sign)
        prod = prod * factor ** cnt
    # char poly = prod * (z-1)^e with e = #arrows - #vertices; for e < 0 the
    # (z-1)^(-e) goes to the left side, which keeps the comparison in Z[z]
    e = len(gq.arrows) - n
    z1 = IntPolynomial([-1, 1])
    if poly * z1 ** max(-e, 0) != prod * z1 ** max(e, 0):
        raise InternalMismatch("char poly %s != product formula %s times (z-1)^%d"
                               % (poly, prod, e))
    return psi, poly


# --- fingerprints ----------------------------------------------------------


Fingerprint = namedtuple("Fingerprint", (
    "numQVertices", "numQArrows", "numGVertices", "numGEdges", "numFaces",
    "bipartite", "nabla", "corank", "detCartan", "aag", "coxeterPoly",
    "faceProfile"))
FINGERPRINT_FIELDS = Fingerprint._fields


@per_quiver
def fingerprint(gq):
    ea = euler_analysis(gq)
    g = to_ribbon(gq)
    fs = ribbon_faces(gq)
    _, poly = coxeter(gq)
    return Fingerprint(
        numQVertices=len(gq.vertices),
        numQArrows=len(gq.arrows),
        numGVertices=len(g.vertices),
        numGEdges=len(g.edges),
        numFaces=len(fs),
        bipartite=bool(ea.nabla),
        nabla=ea.nabla,
        corank=ea.corank,
        detCartan=det(cartan_matrix(gq)),
        aag=aag_invariant(gq),
        coxeterPoly=poly,
        faceProfile=Counter((f.length, f.deg_closed) for f in fs),
    )


# verdict is "not derived equivalent" or "inconclusive"
ComparisonReport = namedtuple("ComparisonReport", ("verdict", "differing"))


def compare(f1, f2):
    diff = tuple(name for name in FINGERPRINT_FIELDS
                 if getattr(f1, name) != getattr(f2, name))
    verdict = "not derived equivalent" if diff else "inconclusive"
    return ComparisonReport(verdict, diff)
