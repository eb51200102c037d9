import functools
import itertools
import random

import pytest

from gentlekit import brauer, incidence_matrix, to_ribbon
from gentlekit.brauer import (
    BrauerGraph,
    brauer_cartan,
    brauer_classify,
    brauer_from_json,
)
from gentlekit.exact_linalg import det, rank_corank
from gentlekit.invariants import euler_analysis
from gentlekit.ribbon import RibbonGraph

from conftest import FIXTURES, definite
from test_acceptance import _graph_family, _ribbon_from_slots


def _graph(vertices, counts, pairs):
    return RibbonGraph(vertices, counts, pairs)


def _edge_list(g):
    return [(g.vertices[g.t_half(e)[0]], g.vertices[g.s_half(e)[0]])
            for e in g.edges]


def test_single_edge():
    bg = BrauerGraph(_graph(("u", "v"), (1, 1), [(1, (0, 0), (1, 0))]))
    assert brauer_cartan(bg).to_lists() == [[2]]
    v = brauer_classify(bg)
    assert (v.definiteness, v.tag, v.repType, v.corank) == \
        ("positive-definite", "tree", "finite", 0)


def test_small_family_frozen():
    loop = BrauerGraph(_graph(("u",), (2,), [(1, (0, 0), (0, 1))]))
    assert brauer_cartan(loop).to_lists() == [[4]]
    v = brauer_classify(loop)
    assert (v.definiteness, v.tag, v.repType) == \
        ("positive-definite", "odd-1-cycle", "1-domestic")

    double = BrauerGraph(_graph(("u", "v"), (2, 2),
                                [(1, (0, 0), (1, 0)), (2, (0, 1), (1, 1))]))
    assert brauer_cartan(double).to_lists() == [[2, 2], [2, 2]]
    v = brauer_classify(double)
    assert (v.definiteness, v.tag, v.repType, v.corank) == \
        ("semidefinite-singular", "other", None, 1)

    tri = BrauerGraph(_graph(("u", "v", "w"), (2, 2, 2),
                             [(1, (0, 0), (1, 1)), (2, (1, 0), (2, 1)),
                              (3, (2, 0), (0, 1))]))
    assert brauer_cartan(tri).to_lists() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert brauer_classify(tri).repType == "1-domestic"

    square = BrauerGraph(_graph(("a", "b", "c", "d"), (2, 2, 2, 2),
                                [(1, (0, 0), (1, 1)), (2, (1, 0), (2, 1)),
                                 (3, (2, 0), (3, 1)), (4, (3, 0), (0, 1))]))
    v = brauer_classify(square)
    assert (v.definiteness, v.corank) == ("semidefinite-singular", 1)

    theta = BrauerGraph(_graph(("u", "v"), (3, 3),
                               [(1, (0, 0), (1, 0)), (2, (0, 1), (1, 1)),
                                (3, (0, 2), (1, 2))]))
    v = brauer_classify(theta)
    assert (v.definiteness, v.tag, v.corank) == \
        ("semidefinite-singular", "other", 2)

    loop_edge = BrauerGraph(_graph(("u", "v"), (3, 1),
                                   [(1, (0, 0), (0, 1)), (2, (0, 2), (1, 0))]))
    assert brauer_cartan(loop_edge).to_lists() == [[4, 2], [2, 2]]
    assert brauer_classify(loop_edge).tag == "odd-1-cycle"


def test_trivial_multiplicity_is_incidence_product():
    tri = _graph(("u", "v", "w"), (2, 2, 2),
                 [(1, (0, 0), (1, 1)), (2, (1, 0), (2, 1)),
                  (3, (2, 0), (0, 1))])
    bg = BrauerGraph(tri)
    assert bg.trivial_multiplicity
    inc = incidence_matrix(tri)
    assert brauer_cartan(bg).to_lists() == (inc * inc.transpose()).to_lists()


def _written_out_cartan(bg):
    """Sum over graph vertices v of m_v b_v b_v^tr, entry by entry, where
    b_v[e] counts the halves of edge e at v."""
    g = bg.graph
    ne = len(g.edges)
    out = [[0] * ne for _ in range(ne)]
    for i, v in enumerate(g.vertices):
        b = [(g.t_half(e)[0] == i) + (g.s_half(e)[0] == i) for e in g.edges]
        for e in range(ne):
            for f in range(ne):
                out[e][f] += bg.multiplicity[v] * b[e] * b[f]
    return out


def test_multiplicity_additivity():
    # every multigraph of criterion 10's family, loops and parallel edges
    # included, with multiplicities 1-4, against the written-out sum
    pool = list(_family_with_multiplicities(17))
    for bg in pool:
        assert brauer_cartan(bg).to_lists() == _written_out_cartan(bg)
    edge_lists = [_edge_list(bg.graph) for bg in pool]
    assert any(a == b for edges in edge_lists for a, b in edges)
    assert any(len(set(map(frozenset, edges))) < len(edges)
               for edges in edge_lists)
    assert sum(not bg.trivial_multiplicity for bg in pool) >= 1000

    tri = _graph(("u", "v", "w"), (2, 2, 2),
                 [(1, (0, 0), (1, 1)), (2, (1, 0), (2, 1)),
                  (3, (2, 0), (0, 1))])
    m1 = {"u": 1, "v": 2, "w": 1}
    m2 = {"u": 3, "v": 1, "w": 2}
    msum = {k: m1[k] + m2[k] for k in m1}
    c1 = brauer_cartan(BrauerGraph(tri, m1))
    c2 = brauer_cartan(BrauerGraph(tri, m2))
    cs = brauer_cartan(BrauerGraph(tri, msum))
    assert (c1 + c2).to_lists() == cs.to_lists()
    assert brauer_cartan(BrauerGraph(tri, m1)).to_lists() == [
        [3, 2, 1], [2, 3, 1], [1, 1, 2]]
    # nontrivial multiplicities suppress the representation-type verdict
    assert brauer_classify(BrauerGraph(tri, m1)).repType is None


def test_cartan_independent_of_cyclic_orders():
    # same pairing attached at each vertex in every possible order
    base_pairs = [(1, (0, 0), (1, 0)), (2, (0, 1), (1, 1)),
                  (3, (0, 2), (1, 2))]
    want = None
    for perm in itertools.permutations(range(3)):
        remap = {(0, i): (0, perm[i]) for i in range(3)}
        pairs = [(e, remap.get(h1, h1), remap.get(h2, h2))
                 for e, h1, h2 in base_pairs]
        bg = BrauerGraph(_graph(("u", "v"), (3, 3), pairs),
                         {"u": 2, "v": 3})
        got = sorted(tuple(r) for r in brauer_cartan(bg).to_lists())
        if want is None:
            want = got
        assert got == want


def test_json_fixtures():
    bg = brauer_from_json((FIXTURES / "oneedge.brauer.json").read_text())
    assert brauer_cartan(bg).to_lists() == [[2]]
    assert brauer_classify(bg).repType == "finite"

    bg = brauer_from_json((FIXTURES / "triangle.brauer.json").read_text())
    assert not bg.trivial_multiplicity
    assert brauer_cartan(bg).to_lists() == [[3, 1, 2], [1, 2, 1], [2, 1, 3]]
    v = brauer_classify(bg)
    assert v.definiteness == "positive-definite"
    assert v.tag == "odd-1-cycle"
    assert v.repType is None


def test_multiplicity_validation():
    tri = _graph(("u", "v", "w"), (2, 2, 2),
                 [(1, (0, 0), (1, 1)), (2, (1, 0), (2, 1)),
                  (3, (2, 0), (0, 1))])
    with pytest.raises(ValueError):
        BrauerGraph(tri, {"u": 0, "v": 1, "w": 1})
    with pytest.raises(ValueError):
        BrauerGraph(tri, {"nope": 1})
    with pytest.raises(ValueError):
        BrauerGraph(tri, {"u": True})
    # omitted vertices default to multiplicity one
    bg = BrauerGraph(tri, {"v": 2})
    assert bg.multiplicity == {"u": 1, "v": 2, "w": 1}


def _pd_oracle(bg):
    # a connected Brauer graph is positive definite exactly when the
    # underlying graph is a tree or carries a single odd cycle
    g = bg.graph
    nv, ne = len(g.vertices), len(g.edges)
    if ne == nv - 1:
        return True
    if ne != nv:
        return False
    # unicyclic: peel leaves, measure what remains
    adj = {v: [] for v in g.vertices}
    for a, b in _edge_list(g):
        adj[a].append(b)
        adj[b].append(a)
    degs = {v: len(adj[v]) for v in g.vertices}
    queue = [v for v in g.vertices if degs[v] == 1]
    alive = set(g.vertices)
    while queue:
        v = queue.pop()
        alive.discard(v)
        degs[v] = 0
        for u in adj[v]:
            if u in alive:
                degs[u] -= 1
                if degs[u] == 1:
                    queue.append(u)
    cycle_len = sum(1 for a, b in _edge_list(g) if a in alive and b in alive)
    return cycle_len % 2 == 1


def test_definiteness_oracle_on_random_brauer_graphs():
    from gentlekit import random_marked_ribbon_graph
    rng = random.Random(77)
    seen = {True: 0, False: 0}
    for k in range(240):
        g = random_marked_ribbon_graph(rng, kind=("any", "tree",
                                                  "odd1cycle")[k % 3])
        mult = {v: rng.randrange(1, 5) for v in g.vertices}
        bg = BrauerGraph(g, mult)
        pd = _pd_oracle(bg)
        v = brauer_classify(bg)
        assert (v.definiteness == "positive-definite") == pd
        c = brauer_cartan(bg)
        assert definite(c) == (det(c) != 0) == pd
        seen[pd] += 1
    assert min(seen.values()) >= 40, seen


@functools.cache
def _family_graphs():
    """Criterion 10's graph family, enumerated once for the tests here;
    a RibbonGraph is immutable, so they can share it."""
    return [_ribbon_from_slots(nv, slots) for nv, slots in _graph_family()]


def _family_with_multiplicities(seed):
    """Criterion 10's graph family, each graph with multiplicities 1-4."""
    rng = random.Random(seed)
    for g in _family_graphs():
        yield BrauerGraph(g, {v: rng.randrange(1, 5) for v in g.vertices})


def _verdict_fields(v):
    return (v.tag, v.definiteness, v.corank, v.repType)


def test_classify_builds_no_cartan_matrix(monkeypatch):
    family = list(_family_with_multiplicities(15))
    want = [_verdict_fields(brauer_classify(bg)) for bg in family]

    def no_cartan(bg):
        raise AssertionError("brauer_classify built a Cartan matrix")

    monkeypatch.setattr(brauer, "brauer_cartan", no_cartan)
    assert [_verdict_fields(brauer_classify(bg)) for bg in family] == want


def test_classify_corank_is_cartan_corank():
    for bg in _family_with_multiplicities(16):
        assert rank_corank(brauer_cartan(bg))[1] == \
            brauer_classify(bg).corank


def test_trivial_extension_matches_the_euler_form(quivers, random_pool):
    # the Brauer graph algebra on to_ribbon(gq), all multiplicities 1, is
    # the trivial extension of the gentle algebra, whose Cartan matrix is
    # C + C^tr: the symmetrized Euler form in the projectives basis, with
    # the same corank
    gqs = [*quivers.values(), *(gq for _, gq in random_pool)]
    for gq in gqs:
        bg = BrauerGraph(to_ribbon(gq))
        ea = euler_analysis(gq)
        assert brauer_cartan(bg) == ea.gramProjectives, gq
        assert brauer_classify(bg).corank == ea.corank, gq
    assert len(gqs) >= 500
