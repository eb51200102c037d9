import json
import random
from collections import Counter

import pytest

from gentlekit import (
    RibbonGraph,
    aag_invariant,
    coxeter,
    dot_export,
    euler_analysis,
    faces,
    forbidden_ribbon,
    from_ribbon,
    incidence_matrix,
    is_bipartite,
    random_marked_ribbon_graph,
    ribbon_canonical_form,
    ribbon_from_json,
    ribbon_to_json,
    to_ribbon,
)
from gentlekit.cli import main
from gentlekit.errors import InfiniteGlobalDimension
from gentlekit.quiver import QuiverStructureError
from gentlekit.ribbon import quiver_canonical_form
from gentlekit.walks import trivial_walk

from conftest import FIXTURE_NAMES, load_fixture


def test_reference_orientation_prefers_larger_half():
    g = to_ribbon(load_fixture("smallrow2"))
    assert g.vertices == ("a1", "triv:1")
    assert g.counts == (3, 1)
    assert g.edges == (1, 2)
    # each edge points at the half with the larger (vertex, position) key
    halves = {1: ((1, 0), (0, 1)), 2: ((0, 2), (0, 0))}
    assert {e: (g.t_half(e), g.s_half(e)) for e in g.edges} == halves
    for eid, (tgt, src) in halves.items():
        assert tgt > src
        assert g.t_half(eid) == tgt and g.s_half(eid) == src
        assert g.t_half(-eid) == src and g.s_half(-eid) == tgt
        assert g.oriented_with_target(tgt) == eid
        assert g.oriented_with_target(src) == -eid
        # each half's partner is the source half of the edge into it
        assert g.s_half(g.oriented_with_target(tgt)) == src
        assert g.s_half(g.oriented_with_target(src)) == tgt


def test_chain_rotation():
    g = to_ribbon(load_fixture("smallrow2"))
    assert g.chains[0] == ((0, 0), (0, 1), (0, 2))
    assert g.rho_inv((0, 2)) == (0, 0)
    assert g.rho_inv((0, 0)) == (0, 1)
    assert g.rho_inv((1, 0)) == (1, 0)

    def rho(half):
        # one step up the chain (toward the marked half), wrapping at the top
        i, p = half
        return (i, p - 1) if p > 0 else (i, g.counts[i] - 1)

    for half in [h for ch in g.chains for h in ch]:
        assert rho(g.rho_inv(half)) == half


def test_incidence_frozen():
    got = {}
    for name in ("smallrow2", "tree", "amiot1", "twosided", "loop"):
        g = to_ribbon(load_fixture(name))
        got[name] = (incidence_matrix(g).to_lists(), is_bipartite(g))
    assert got["smallrow2"] == ([[1, 1], [2, 0]], False)
    assert got["tree"] == ([[1, 1, 0], [1, 0, 1]], True)
    assert got["amiot1"] == ([[1, 0, 1, 0], [1, 0, 1, 0], [0, 1, 1, 0],
                              [1, 0, 0, 1], [1, 1, 0, 0]], False)
    assert got["twosided"] == ([[1, 1], [1, 1], [1, 1]], True)
    assert got["loop"] == ([[2]], False)


def test_incidence_row_sums():
    # every edge has two half-edges, so each unsigned row sums to 2
    for name in FIXTURE_NAMES:
        g = to_ribbon(load_fixture(name))
        for row in incidence_matrix(g).to_lists():
            assert sum(row) == 2, name


def test_forbidden_ribbon_frozen():
    fr = forbidden_ribbon(load_fixture("tree"))
    assert fr.graph.vertices == ("a1", "triv:1", "triv:2")
    assert incidence_matrix(fr.graph, fr.sigma_hat).to_lists() == [
        [1, 1, 0], [-1, 0, 1]]

    fr = forbidden_ribbon(load_fixture("smallrow2"))
    assert fr.graph.vertices == ("a1", "triv:2")
    assert incidence_matrix(fr.graph, fr.sigma_hat).to_lists() == [
        [2, 0], [-1, 1]]

    fr = forbidden_ribbon(load_fixture("amiot1"))
    assert fr.graph.vertices == ("b3", "a1", "a2", "triv:5")
    assert incidence_matrix(fr.graph, fr.sigma_hat).to_lists() == [
        [0, -1, -1, 0], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0],
        [-1, 0, 0, 1]]


def test_forbidden_ribbon_signs_alternate():
    # along each forbidden chain the sign flips at every step
    for name in ("tree", "smallrow2", "amiot1", "sixvertex"):
        fr = forbidden_ribbon(load_fixture(name))
        for chain in fr.graph.chains:
            for a, b in zip(chain, chain[1:]):
                assert fr.sigma_hat[a] == -fr.sigma_hat[b], name


def test_forbidden_ribbon_requires_finite_dimension():
    for name in ("loop", "twosided", "nonpalin"):
        with pytest.raises(InfiniteGlobalDimension):
            forbidden_ribbon(load_fixture(name))


def test_round_trips():
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        g = to_ribbon(gq)
        assert quiver_canonical_form(from_ribbon(g)) == quiver_canonical_form(gq), name
        assert ribbon_canonical_form(to_ribbon(from_ribbon(g))) == \
            ribbon_canonical_form(g), name


def test_sweep_past_genus_one(genus_pool):
    # each call cross-checks its own routes; then both round trips
    genera = []
    for k, (g, gq) in enumerate(genus_pool):
        euler_characteristic = (len(g.vertices) - len(g.edges)
                                + len(faces(g)))
        genera.append((2 - euler_characteristic) // 2)
        euler_analysis(gq)
        aag_invariant(gq)
        coxeter(gq)
        assert ribbon_canonical_form(to_ribbon(gq)) == \
            ribbon_canonical_form(g), k
        assert quiver_canonical_form(from_ribbon(to_ribbon(gq))) == \
            quiver_canonical_form(gq), k
    assert sum(genus >= 2 for genus in genera) >= 40, genera
    assert Counter(genera) == {0: 34, 1: 86, 2: 73, 3: 7}


def test_arrow_half_maps():
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        g = to_ribbon(gq)
        pos = gq.permitted_pos
        assert sorted(pos) == sorted(a.name for a in gq.arrows), name
        halves = {h for ch in g.chains for h in ch}
        for aname, half in pos.items():
            assert half in halves, (name, aname)
        assert {h: a for a, h in pos.items()} == gq.arrow_at, name


def test_one_edge_graph_builds_but_has_no_quiver(tmp_path, capsys):
    # one edge between two vertices is a valid ribbon (and Brauer) graph,
    # but its quiver has no arrow, so every quiver path rejects it
    g = RibbonGraph(("u", "v"), (1, 1), [(1, (0, 0), (1, 0))])
    assert incidence_matrix(g).to_lists() == [[1, 1]]
    with pytest.raises(QuiverStructureError):
        from_ribbon(g)
    path = tmp_path / "oneedge.rgraph.json"
    path.write_text(json.dumps(ribbon_to_json(g)))
    assert main(["analyze", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_random_graphs_have_a_vertex_of_degree_two():
    rng = random.Random(15)
    for kind in ("any", "tree", "odd1cycle"):
        for k in range(10000):
            g = random_marked_ribbon_graph(rng, kind, max_vertices=1 + k % 8)
            assert max(g.counts) >= 2, (kind, k)


def test_walk_end_tables_match_the_halves():
    rng = random.Random(20261019)
    kinds = ("any", "tree", "odd1cycle")
    for k in range(200):
        g = random_marked_ribbon_graph(rng, kind=kinds[k % 3])
        for oe in g.oriented_edges():
            assert g.t_vertex(oe) == g.vertices[g.t_half(oe)[0]], (k, oe)
            assert g.s_vertex(oe) == g.vertices[g.s_half(oe)[0]], (k, oe)
            assert g.oriented_with_target(g.t_half(oe)) == oe, (k, oe)
            assert g.t_half(-oe) == g.s_half(oe), (k, oe)
        # each half is the target of exactly one oriented edge
        targets = sorted(g.t_half(oe) for oe in g.oriented_edges())
        assert targets == sorted(h for ch in g.chains for h in ch), k
        for v in g.vertices:
            w = trivial_walk(g, v)
            assert w.source_vertex == w.target_vertex == v
            assert w.closed


def test_constructor_rejects_bad_pairings():
    rows = [
        (("u",), (2,), [(1, (0, 0), (0, 0))],
         "edge 1 pairs a half-edge with itself"),
        (("u",), (3,), [(1, (0, 0), (0, 1))],  # (0,2) unpaired
         "some half-edges are not paired"),
        (("u", "u"), (2, 2), [(1, (0, 0), (1, 0)), (2, (0, 1), (1, 1))],
         "duplicate vertex id 'u'"),
        (("u",), (4,), [(1, (0, 0), (0, 1)), (1, (0, 2), (0, 3))],
         "duplicate edge id 1"),
        (("u", "v"), (2,), [(1, (0, 0), (0, 1))],
         "counts/vertices length mismatch"),
        (("u", "v"), (2, 0), [(1, (0, 0), (0, 1))],
         "every vertex needs at least one half-edge"),
        (("u",), (2,), [(1, (0, 0), (0, 2))],
         r"unknown half-edge \(0, 2\)"),
        (("u",), (3,), [(1, (0, 0), (0, 1)), (2, (0, 1), (0, 2))],
         r"half-edge \(0, 1\) used twice"),
        (("u", "v"), (2, 2), [(1, (0, 0), (0, 1)), (2, (1, 0), (1, 1))],
         "ribbon graph is not connected"),
    ]
    for vertices, counts, pairs, message in rows:
        with pytest.raises(ValueError, match="^%s$" % message):
            RibbonGraph(vertices, counts, pairs)


def test_is_bipartite_on_a_loop():
    # a loop joins a vertex to itself, so no 2-colouring is proper, even
    # where the loop sits away from vertex 0 on an otherwise bipartite path
    assert not is_bipartite(RibbonGraph(("u",), (2,), [(1, (0, 0), (0, 1))]))
    path = [(1, (0, 0), (1, 0)), (2, (1, 1), (2, 0))]
    assert is_bipartite(RibbonGraph(("u", "v", "w"), (1, 2, 1), path))
    assert not is_bipartite(RibbonGraph(("u", "v", "w"), (1, 2, 3),
                                        path + [(3, (2, 1), (2, 2))]))
    assert not is_bipartite(RibbonGraph(("u", "v", "w"), (3, 2, 1),
                                        [(3, (0, 1), (0, 2))] + path))


def test_constructor_rejects_edge_ids_below_one():
    # an oriented edge is a signed edge id, so an edge id is positive
    for eid in (0, -3):
        with pytest.raises(ValueError,
                           match="edge id %d is not a positive integer" % eid):
            RibbonGraph(("u", "v"), (1, 1), [(eid, (0, 0), (1, 0))])


def test_json_round_trip():
    # from_json relabels edges canonically (by smaller half), so one pass
    # is a fixed point and the vertex/chain structure survives unchanged
    for name in FIXTURE_NAMES:
        g = to_ribbon(load_fixture(name))
        once = ribbon_from_json(json.dumps(ribbon_to_json(g)))
        twice = ribbon_from_json(json.dumps(ribbon_to_json(once)))
        assert ribbon_canonical_form(once) == ribbon_canonical_form(twice), name
        assert once.vertices == g.vertices and once.counts == g.counts, name
        # same pairing of half-edges, edge ids aside
        orig = sorted(sorted((g.t_half(e), g.s_half(e))) for e in g.edges)
        new = sorted(sorted((once.t_half(e), once.s_half(e)))
                     for e in once.edges)
        assert orig == new, name


def test_json_fixture_file():
    from conftest import FIXTURES
    g = ribbon_from_json((FIXTURES / "triangle.rgraph.json").read_text())
    assert g.vertices == ("u", "v", "w")
    # edge ids follow the smaller half of each pair: u:0, u:1, v:0
    assert incidence_matrix(g).to_lists() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert not is_bipartite(g)
    gq = from_ribbon(g)
    assert len(gq.vertices) == 3 and len(gq.arrows) == 3


def test_dot_export_mentions_every_edge():
    g = to_ribbon(load_fixture("amiot1"))
    dot = dot_export(g)
    assert dot.startswith("graph")
    for eid in g.edges:
        assert " [label=\"%d\"]" % eid in dot or "label=\"%d\"" % eid in dot


def test_random_generator_kinds():
    rng = random.Random(17)
    for _ in range(40):
        t = random_marked_ribbon_graph(rng, kind="tree")
        assert len(t.edges) == len(t.vertices) - 1
        assert is_bipartite(t)
        c = random_marked_ribbon_graph(rng, kind="odd1cycle")
        assert len(c.edges) == len(c.vertices)
        assert not is_bipartite(c)
