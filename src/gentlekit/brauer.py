"""Brauer graph algebras: Cartan data and positivity from graph shape.

The Cartan matrix of a Brauer graph algebra is the multiplicity-weighted sum
over the graph vertices v of m_v b_v b_v^tr, b_v the column of v in the
plain incidence matrix B, so it never sees the cyclic orders; it is the one
product of B, its columns scaled by the multiplicities, with B^tr.  Positive
definiteness is equivalent to the graph being a tree or having exactly one
cycle of odd length, independently of the multiplicities; both sides of that
equivalence are computed and compared here.  The definiteness side reads the
corank of the transposed incidence matrix, which equals the Cartan corank
because every multiplicity is positive.
"""

from collections import namedtuple
from operator import mul

from .errors import InternalMismatch
from .exact_linalg import IntMatrix, rank_corank
from .ribbon import incidence_matrix, is_bipartite, load_json, ribbon_from_json


class BrauerGraph:
    """Connected ribbon graph with a positive multiplicity per vertex."""

    __slots__ = ("graph", "multiplicity")

    def __init__(self, graph, multiplicity=None):
        self.graph = graph
        mult = {v: 1 for v in graph.vertices}
        if multiplicity:
            for v, m in multiplicity.items():
                if v not in mult:
                    raise ValueError("multiplicity for unknown vertex %r" % (v,))
                if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                    raise ValueError("multiplicity of %r must be a positive "
                                     "integer" % (v,))
                mult[v] = m
        self.multiplicity = mult

    @property
    def trivial_multiplicity(self):
        return all(m == 1 for m in self.multiplicity.values())


def brauer_from_json(data):
    data = load_json(data)
    g = ribbon_from_json(data)
    mult = {}
    for entry in data["vertices"]:
        if "multiplicity" in entry:
            mult[str(entry["id"])] = entry["multiplicity"]
    return BrauerGraph(g, mult)


def brauer_cartan(bg):
    """One product: the incidence matrix with column v scaled by m_v, times
    its transpose, so entry (e, f) is sum_v m_v inc[e][v] inc[f][v]."""
    inc = incidence_matrix(bg.graph)
    mult = [bg.multiplicity[v] for v in bg.graph.vertices]
    scaled = IntMatrix._trusted(tuple(tuple(map(mul, row, mult))
                                      for row in inc.rows), inc.ncols)
    return scaled * inc.transpose()


BrauerVerdict = namedtuple("BrauerVerdict", (
    "definiteness", "tag", "repType", "corank"))


def brauer_classify(bg):
    """Definiteness via exact corank, structure via cycle rank and parity;
    the two readings must agree for every multiplicity assignment.  The
    corank is that of inc^tr, equal to the Cartan corank since D > 0.  At
    cycle rank 1 the one cycle is odd exactly when the graph is not
    bipartite, a loop being a cycle of length 1."""
    # C = inc * D * inc^tr with D a positive diagonal has x^tr C x =
    # sum_v m_v ((inc^tr x)_v)^2, so Cx = 0 exactly when inc^tr x = 0: C has
    # the corank of inc^tr and is definite exactly at corank 0
    _, corank = rank_corank(incidence_matrix(bg.graph).transpose())
    definite = corank == 0

    cyc_rank = len(bg.graph.edges) - len(bg.graph.vertices) + 1
    if cyc_rank == 0:
        tag = "tree"
    elif cyc_rank == 1:
        tag = "other" if is_bipartite(bg.graph) else "odd-1-cycle"
    else:
        tag = "other"

    if definite != (tag in ("tree", "odd-1-cycle")):
        raise InternalMismatch("rank test (%s) and structure test (%s) disagree"
                               % ("definite" if definite else "singular", tag))
    rep_type = None
    if bg.trivial_multiplicity and tag == "tree":
        rep_type = "finite"
    elif bg.trivial_multiplicity and tag == "odd-1-cycle":
        rep_type = "1-domestic"
    definiteness = "positive-definite" if definite else "semidefinite-singular"
    return BrauerVerdict(definiteness, tag, rep_type, corank)
