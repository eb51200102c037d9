import random

import pytest

from gentlekit import from_ribbon, random_marked_ribbon_graph, to_ribbon
from gentlekit.derived import ar_translate, build_string_complex
from gentlekit.walks import (
    NotConcatenable,
    NotReduced,
    UnknownEdge,
    Walk,
    anti_walk,
    classify_walk,
    connecting_path,
    deg_step,
    degree,
    enumerate_belts,
    enumerate_reduced_walks,
    faces,
    incidence_vector,
    is_belt,
    parse_walk,
    reduced_concat,
    trivial_walk,
)

from conftest import FIXTURE_NAMES, load_fixture


def _ribbon(name):
    return to_ribbon(load_fixture(name))


def _anti_walks(g):
    """Every anti-walk, and the map from a vertex to its anti-walk's source."""
    aw = {v: anti_walk(g, v) for v in g.vertices}
    return aw, {v: w.source_vertex for v, w in aw.items()}


def test_parse_and_render():
    g = _ribbon("sixvertex")
    w = parse_walk(g, "2 -3 -5 4 6 -2 1")
    assert w.render() == "2 -3 -5 4 6 -2 1"
    assert w.length == 7
    assert not w.closed
    assert w.reduced
    with pytest.raises(UnknownEdge):
        parse_walk(g, "2 9")
    with pytest.raises(NotConcatenable):
        parse_walk(g, "2 6")
    with pytest.raises(ValueError):
        parse_walk(g, "2 bogus")


def test_walk_edges_are_the_rendered_word():
    # an oriented edge is its signed edge id, so a walk's edges are the word
    # that render prints and parse_walk reads back
    for name in FIXTURE_NAMES:
        g = _ribbon(name)
        for w in enumerate_reduced_walks(g, 4):
            assert w.edges == tuple(map(int, w.render().split())), name
            assert parse_walk(g, w.render()) == w, name


def test_walk_rejects_unknown_oriented_edges():
    # the checked constructor validates every edge before it looks the edges
    # up: an oriented edge is a nonzero int that names an edge, so a bool, a
    # float or a tuple is refused
    g = _ribbon("sixvertex")
    for edges in ([(1, 0)], [(1, 5)], [(1, -2)], [99], [-99], [0],
                  [2, -99], [2, 0], [True], [1.0], [(1, 1)]):
        with pytest.raises(UnknownEdge):
            Walk(g, edges)
    assert Walk(g, [1]).render() == "1"
    assert Walk(g, [-1]).render() == "-1"
    # an edge list is stored as a tuple, like a parsed one
    w = Walk(g, [2, -3])
    assert w == parse_walk(g, "2 -3") and hash(w) == hash(parse_walk(g, "2 -3"))
    assert Walk(g, parse_walk(g, "2 -3 -5").edges).render() == "2 -3 -5"


def test_trivial_walks():
    g = _ribbon("tree")
    w = trivial_walk(g, "a1")
    assert w.trivial and w.length == 0 and w.closed
    assert w.source_vertex == "a1" and w.target_vertex == "a1"
    assert w.inverse() == w
    assert degree(w) == 0
    assert incidence_vector(w) == (0, 0)


def test_trivial_walk_base_must_be_a_vertex():
    g = _ribbon("tree")
    for make, base in ((lambda: trivial_walk(g, "nope"), "nope"),
                       (lambda: trivial_walk(g, 0), 0),
                       (lambda: Walk(g, (), base="nope"), "nope"),
                       (lambda: Walk(g, ()), None)):
        with pytest.raises(ValueError) as exc:
            make()
        assert repr(base) in str(exc.value)


def test_degree_steps_frozen():
    g = _ribbon("sixvertex")
    w = parse_walk(g, "2 -3 -5 4 6 -2 1")
    steps = [deg_step(g, w.edges[t], w.edges[t + 1]) for t in range(6)]
    assert steps == [1, -1, -1, 1, 1, 1]
    assert degree(w) == 2
    assert incidence_vector(w) == (1, 0, -1, -1, 1, 1)
    with pytest.raises(NotReduced):
        degree(parse_walk(g, "2 -3 3"))
    with pytest.raises(NotConcatenable,
                       match="junction halves at different vertices"):
        deg_step(_ribbon("amiot1"), 1, 3)


def test_degree_antisymmetry():
    for name in FIXTURE_NAMES:
        g = _ribbon(name)
        for w in enumerate_reduced_walks(g, 4):
            assert degree(w.inverse()) == -degree(w), name


def test_walk_classification():
    g6 = _ribbon("sixvertex")
    assert classify_walk(parse_walk(g6, "2 -3 -5 4 6 -2 1")) == "open"
    assert classify_walk(parse_walk(g6, "3 -6 -4 5 3")) == "belt"
    assert is_belt(parse_walk(g6, "3 -6 -4 5 3"))
    g1 = _ribbon("amiot1")
    assert classify_walk(parse_walk(g1, "-1 3 5")) == "closed-odd"
    assert classify_walk(parse_walk(g1, "-1 2")) == "closed-even"
    assert classify_walk(parse_walk(g1, "1 -1")) == "not-reduced"
    assert classify_walk(trivial_walk(g1, "a1")) == "closed-even"


def test_connecting_path_frozen():
    g = _ribbon("sixvertex")
    d, path = connecting_path(g, 2, -3)
    assert d in (1, -1)
    assert all(p in {h for ch in g.chains for h in ch} for p in path)
    # inverse orientation pair gives the opposite sign
    d2, _ = connecting_path(g, 3, -2)
    assert d2 == -d


def test_anti_walks_frozen():
    g = _ribbon("amiot1")
    aw, xi = _anti_walks(g)
    assert aw["b1"].render() == "-2 1 -4"
    assert aw["g1"].render() == "5"
    assert aw["a1"].render() == "2 -1 3"
    assert aw["triv:4"].render() == "4 -5 -3"
    assert xi == {"a1": "g1", "g1": "b1", "b1": "triv:4", "triv:4": "a1"}
    assert anti_walk(g, "a1").render() == "2 -1 3"
    # the dual walk runs the other way
    assert anti_walk(g, "a1").inverse().render() == "-3 1 -2"

    gx = _ribbon("twosided")
    awx, _ = _anti_walks(gx)
    assert awx["a1"].render() == "-3"
    assert awx["b1"].render() == "1"


def _factors(g, f):
    """The vertices whose marked half the face reaches as a target half, in
    face order, rotated to start at the one listed first in g.vertices."""
    marked = [h[0] for h in map(g.t_half, f.walk.edges) if h[1] == 0]
    k = marked.index(min(marked)) if marked else 0
    return tuple(g.vertices[i] for i in marked[k:] + marked[:k])


def _assert_faces_are_anti_walk_chains(g):
    # a non-full face runs through the anti-walks of its factors in xi order,
    # starting at the factor listed first; a full face reaches no marked half
    aw, xi = _anti_walks(g)
    for f in faces(g):
        marked = [g.t_half(oe) for oe in f.walk.edges
                  if g.t_half(oe)[1] == 0]
        u = _factors(g, f)
        assert f.pair[0] == len(u)
        if f.is_full:
            assert u == () and marked == []
            continue
        assert u[0] == min(u, key=g.vid_index.__getitem__)
        assert [xi[v] for v in u] == list(u[1:] + u[:1])
        chain = tuple(oe for v in u for oe in aw[v].edges)
        edges = f.walk.edges
        assert any(chain == edges[k:] + edges[:k] for k in range(len(edges)))


def test_anti_walks_partition_oriented_edges():
    # anti-walks cover every oriented edge exactly once, except those lying
    # on full faces (they carry no marked half)
    for name in FIXTURE_NAMES:
        g = _ribbon(name)
        aw, xi = _anti_walks(g)
        used = [oe for v in g.vertices for oe in aw[v].edges]
        assert len(used) == len(set(used)), name
        on_full = [oe for f in faces(g) if f.is_full for oe in f.walk.edges]
        assert sorted(used + on_full) == sorted(g.oriented_edges()), name
        assert sorted(xi) == sorted(g.vertices), name
        assert sorted(xi.values()) == sorted(g.vertices), name
        _assert_faces_are_anti_walk_chains(g)


def test_faces_frozen():
    gT = _ribbon("tree")
    fs = faces(gT)
    assert [(f.walk.render(), f.pair, f.is_full, _factors(gT, f))
            for f in fs] == [
        ("-2 2 -1 1", (3, 1), False, ("a1", "triv:2", "triv:1"))]

    gL = _ribbon("loop")
    got = sorted((f.walk.render(), f.pair, f.is_full) for f in faces(gL))
    assert got == [("-1", (1, 0), False), ("1", (0, 1), True)]

    g1 = _ribbon("amiot1")
    fs = faces(g1)
    assert len(fs) == 1
    f = fs[0]
    assert f.walk.render() == "-4 4 -5 -3 2 -1 3 5 -2 1"
    assert f.pair == (4, 6)
    assert _factors(g1, f) == ("b1", "triv:4", "a1", "g1")

    gX = _ribbon("twosided")
    got = sorted((f.walk.render(), f.pair, f.is_full) for f in faces(gX))
    assert got == [("-3 1", (2, 0), False), ("2 -1", (0, 2), True),
                   ("3 -2", (0, 2), True)]


def _least_traversal_rotation(edges):
    """The rotation whose reading in traversal order, last written edge
    first, is least, an edge i comparing as (abs(i), 0) for i > 0 and
    (abs(i), 1) for i < 0; found by trying every rotation."""
    rotations = [edges[k:] + edges[:k] for k in range(len(edges))]
    return min(rotations, key=lambda rot: [(abs(i), 0 if i > 0 else 1)
                                           for i in reversed(rot)])


def test_faces_read_from_their_junctions():
    # a face's degree is the sum of deg_step over its cyclic junctions, a
    # backtracking junction (only at a one-half vertex) counting -1; its
    # pair and fullness follow from that sum, and its walk is written in the
    # rotation of least traversal reading
    rng = random.Random(5)
    kinds = ("any", "tree", "odd1cycle")
    graphs = [_ribbon(name) for name in FIXTURE_NAMES]
    graphs += [random_marked_ribbon_graph(rng, kind=kinds[k % 3])
               for k in range(300)]
    backtracks = 0
    for g in graphs:
        for f in faces(g):
            e = f.walk.edges
            ell = len(e)
            d = 0
            for t in range(ell):
                i, j = e[t], e[(t + 1) % ell]
                if j == -i:
                    backtracks += 1
                    d -= 1
                else:
                    d += deg_step(g, i, j)
            assert f.deg_closed == d, f
            assert f.pair == ((ell - d) // 2, (ell + d) // 2), f
            assert f.is_full == (d == ell), f
            assert e == _least_traversal_rotation(e), f
    assert backtracks > 0


def test_face_sums():
    # marked halves are hit once each, so the n components add up to |V|;
    # total face length covers every oriented edge once
    for name in FIXTURE_NAMES:
        g = _ribbon(name)
        fs = faces(g)
        assert sum(f.pair[0] for f in fs) == len(g.vertices), name
        assert sum(f.walk.length for f in fs) == 2 * len(g.edges), name
        for f in fs:
            n, m = f.pair
            assert n + m == f.walk.length, name
            if f.is_full:
                assert n == 0, name


def test_full_faces_match_full_cycles():
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        g = to_ribbon(gq)
        fulls = [f for f in faces(g) if f.is_full]
        assert len(fulls) == len(gq.full_cycles), name
        assert sorted(f.walk.length for f in fulls) == \
            sorted(len(c) for c in gq.full_cycles), name


def test_reduced_concat():
    g = _ribbon("amiot1")
    w = parse_walk(g, "-1 3 5")
    back = reduced_concat(w, w.inverse())
    assert back.trivial
    assert back.target_vertex == w.target_vertex
    a = parse_walk(g, "-1 3")
    b = parse_walk(g, "5")
    assert reduced_concat(a, b).render() == "-1 3 5"
    # partial cancellation
    c = reduced_concat(parse_walk(g, "-1 3"), parse_walk(g, "-3 1 -4"))
    assert c.render() == "-1 1 -4"[-5:] or c.render() == "-4"
    # a trivial walk on the right leaves the left walk as it is
    assert reduced_concat(w, trivial_walk(g, w.source_vertex)) is w
    with pytest.raises(NotConcatenable, match="source of the left walk is b1, "
                       "target of the right walk is a1"):
        reduced_concat(w, parse_walk(g, "3"))
    # an equal copy of the graph is still another graph
    other = _ribbon("amiot1")
    assert other is not g
    with pytest.raises(ValueError, match="walks live on different graphs"):
        reduced_concat(w, parse_walk(other, "3"))


def test_enumerate_reduced_walks():
    gL = _ribbon("loop")
    assert sorted(w.render() for w in enumerate_reduced_walks(gL, 3)) == [
        "-1", "-1 -1", "-1 -1 -1", "1", "1 1", "1 1 1"]
    for name in FIXTURE_NAMES:
        g = _ribbon(name)
        for w in enumerate_reduced_walks(g, 4):
            assert w.reduced, name
    for bound in (0, -3):
        with pytest.raises(ValueError):
            enumerate_reduced_walks(gL, bound)


def _reference_walks(g, max_len):
    """Recursive depth-first enumeration: each walk, then its extensions by
    one edge in the chain order at its source vertex."""
    out = []

    def grow(edges):
        out.append(edges)
        if len(edges) == max_len:
            return
        last = edges[-1]
        for h in g.chains[g.vid_index[g.s_vertex(last)]]:
            nxt = g.oriented_with_target(h)
            if nxt != -last:
                grow(edges + (nxt,))

    for start in g.oriented_edges():
        grow((start,))
    return out


def test_enumeration_order_matches_recursive_reference():
    for name in FIXTURE_NAMES:
        g = _ribbon(name)
        got = [w.edges for w in enumerate_reduced_walks(g, 5)]
        assert got == _reference_walks(g, 5), name


def test_long_walk_bounds_do_not_recurse():
    # the loop has two reduced walks of each length; a recursion one level
    # per edge would pass Python's default limit of 1000 frames
    gL = _ribbon("loop")
    walks = enumerate_reduced_walks(gL, 1200)
    assert len(walks) == 2400
    assert max(w.length for w in walks) == 1200
    assert enumerate_belts(gL, 1200) == []


def test_enumerate_belts_frozen():
    g6 = _ribbon("sixvertex")
    got = sorted(w.render() for w in enumerate_belts(g6, 4))
    assert got == ["-1 2 -1", "-3 -5 4 6 -3", "1 -2 1", "3 -6 -4 5 3"]
    for w in enumerate_belts(g6, 6):
        assert is_belt(w)
        assert degree(w) == 0
        assert w.edges[0] == w.edges[-1]
    g1 = _ribbon("amiot1")
    assert sorted(w.render() for w in enumerate_belts(g1, 6)) == [
        "-1 2 -1", "1 -2 1"]
    assert enumerate_belts(_ribbon("tree"), 6) == []
    assert enumerate_belts(_ribbon("loop"), 6) == []


def _assert_passes_outside_check(w):
    assert isinstance(w.edges, tuple) and w.edges and w.base is None
    assert Walk(w.graph, w.edges) == w


def test_derived_walks_pass_outside_validation():
    # walks the library derives skip the adjacency check of Walk(g, edges),
    # and triangle members skip build_string_complex's checks; every one of
    # them must still pass both
    rng = random.Random(61)
    quivers = [load_fixture(name) for name in FIXTURE_NAMES]
    quivers += [from_ribbon(random_marked_ribbon_graph(rng, kind="any"))
                for _ in range(12)]
    for gq in quivers:
        g = to_ribbon(gq)
        walks = enumerate_reduced_walks(g, 4)
        for w in walks:
            _assert_passes_outside_check(w)
            _assert_passes_outside_check(w.inverse())
            tri = ar_translate(gq, 0, w)
            for x in (tri.start, *tri.middle, tri.end):
                _assert_passes_outside_check(x.walk)
                assert x.walk.reduced
                y = build_string_complex(gq, x.m, x.walk)
                assert (y.terms, y.maps) == (x.terms, x.maps)
        for w1 in walks[:40]:
            for w2 in walks[:40]:
                if w1.source_vertex == w2.target_vertex:
                    x = reduced_concat(w1, w2)
                    if not x.trivial:
                        _assert_passes_outside_check(x)
        for w in _anti_walks(g)[0].values():
            _assert_passes_outside_check(w)
        for f in faces(g):
            _assert_passes_outside_check(f.walk)
        for b in enumerate_belts(g, 4):
            _assert_passes_outside_check(b)
            assert Walk(g, b.edges[:-1]).closed


def test_random_anti_walk_partition():
    rng = random.Random(123)
    for _ in range(50):
        g = random_marked_ribbon_graph(rng, kind="any")
        aw, _ = _anti_walks(g)
        used = [oe for v in g.vertices for oe in aw[v].edges]
        assert len(used) == len(set(used))
        fs = faces(g)
        on_full = [oe for f in fs if f.is_full for oe in f.walk.edges]
        assert sorted(used + on_full) == sorted(g.oriented_edges())
        assert sum(f.pair[0] for f in fs) == len(g.vertices)
        assert sum(f.walk.length for f in fs) == 2 * len(g.edges)
        _assert_faces_are_anti_walk_chains(g)
