import random

import pytest

from gentlekit import (RibbonGraph, derived, exact_linalg, from_ribbon,
                       invariants, random_marked_ribbon_graph, to_ribbon,
                       walks)
from gentlekit.derived import (
    BandComplex,
    WALK_LENGTH_LIMIT,
    ar_translate,
    build_string_complex,
    enumerate_perfect_classes,
    k0_class,
    root_classify,
    root_tag,
    walk_q_value,
)
from gentlekit.cli import main
from gentlekit.errors import BoundTooLarge, InternalMismatch, TrivialInput
from gentlekit.exact_linalg import qform_eval, short_vectors
from gentlekit.invariants import coxeter, euler_analysis
from gentlekit.walks import (
    NotReduced,
    classify_walk,
    deg_step,
    degree,
    enumerate_belts,
    enumerate_reduced_walks,
    parse_walk,
    trivial_walk,
)

from conftest import FIXTURE_NAMES, FIXTURES, load_fixture


def _pair(name):
    gq = load_fixture(name)
    return gq, to_ribbon(gq)


def test_string_complex_frozen():
    gq, g = _pair("sixvertex")
    x = build_string_complex(gq, 0, parse_walk(g, "2 -3 -5 4 6 -2 1"))
    assert x.terms == ((0, 2), (1, 3), (0, 5), (-1, 4), (0, 6), (1, 2), (2, 1))
    assert x.maps == ((0, 1, ("a2", "a3"), False), (2, 1, ("g1",), True),
                      (3, 2, ("b3",), True), (3, 4, ("d1",), False),
                      (4, 5, ("a1",), False), (5, 6, ("b1",), False))
    assert x.terms != ()
    assert k0_class(x) == (1, 0, -1, -1, 1, 1)
    backtracking = parse_walk(g, "2 -3 3")
    with pytest.raises(NotReduced):
        build_string_complex(gq, 0, backtracking)
    with pytest.raises(NotReduced):
        ar_translate(gq, 0, backtracking)


def test_string_complex_shift_moves_degrees():
    gq, g = _pair("sixvertex")
    w = parse_walk(g, "2 -3 -5 4 6 -2 1")
    x0 = build_string_complex(gq, 0, w)
    x3 = build_string_complex(gq, 3, w)
    assert [(d + 3, e) for d, e in x0.terms] == list(x3.terms)
    assert x0.maps == x3.maps
    # odd shift flips the class sign
    assert k0_class(build_string_complex(gq, 1, w)) == \
        tuple(-v for v in k0_class(x0))


def _pairs(g):
    """(edge id, target half, source half) for each edge, in edge order."""
    return [(e, g.t_half(e), g.s_half(e)) for e in g.edges]


def test_walks_on_equal_graphs_build_complexes():
    # a walk must live on to_ribbon(gq) itself: neither an equal copy of the
    # graph nor a differently marked graph on the same edges will do
    gq, g = _pair("amiot1")
    same = to_ribbon(load_fixture("amiot1"))
    assert same is not g
    assert (same.vertices, _pairs(same)) == (g.vertices, _pairs(g))
    walks = enumerate_reduced_walks(same, 2)
    assert walks
    for w in walks:
        with pytest.raises(ValueError):
            build_string_complex(gq, 0, w)
        with pytest.raises(ValueError):
            ar_translate(gq, 0, w)
    i = g.counts.index(max(g.counts))
    swap = {(i, 0): (i, 1), (i, 1): (i, 0)}
    remarked = RibbonGraph(g.vertices, g.counts,
                           [(e, swap.get(h1, h1), swap.get(h2, h2))
                            for e, h1, h2 in _pairs(g)])
    walks = enumerate_reduced_walks(remarked, 3)
    assert walks
    for w in walks:
        with pytest.raises(ValueError):
            build_string_complex(gq, 0, w)


def test_trivial_walk_gives_zero_complex():
    gq, g = _pair("sixvertex")
    x = build_string_complex(gq, 0, trivial_walk(g, "a1"))
    assert x.terms == () and x.maps == ()
    assert k0_class(x) == (0,) * 6
    assert derived.walk_q_value(trivial_walk(g, "a1")) == 0


def test_one_term_complexes():
    # a length-1 walk folds to a single term with no differential
    gq, g = _pair("loop")
    x = build_string_complex(gq, 0, parse_walk(g, "1"))
    assert x.terms == ((0, 1),) and x.maps == ()
    gq, g = _pair("tree")
    x = build_string_complex(gq, 2, parse_walk(g, "1"))
    assert x.terms == ((2, 1),) and x.maps == ()


def _alternating_term_sum(g, terms, weight=1):
    acc = [0] * len(g.edges)
    for deg, proj in terms:
        acc[g.edge_index[proj]] += weight * (-1) ** deg
    return tuple(acc)


def test_classes_are_alternating_term_sums():
    # the signed incidence vector is the alternating sum of the terms: of
    # the built string complex, and of the band's terms at the cumulative
    # junction degrees of its belt
    for name in FIXTURE_NAMES:
        gq, g = _pair(name)
        for w in enumerate_reduced_walks(g, 6):
            for m in (0, 1):
                x = build_string_complex(gq, m, w)
                assert k0_class(x) == _alternating_term_sum(g, x.terms), \
                    (name, m, w.render())
        for belt in enumerate_belts(g, 6):
            e = belt.edges
            cum = [0]
            for t in range(len(e) - 2):
                cum.append(cum[-1] + deg_step(g, e[t], e[t + 1]))
            for m in (0, 1):
                terms = [(m + c, abs(oe)) for c, oe in zip(cum, e)]
                for d in (1, 2):
                    assert k0_class(BandComplex(m, belt, d)) == \
                        _alternating_term_sum(g, terms, d), \
                        (name, m, d, belt.render())


def test_band_complex_frozen():
    gq, g = _pair("sixvertex")
    belt = parse_walk(g, "3 -6 -4 5 3")
    assert k0_class(BandComplex(0, belt, 2)) == (0, 0, 2, 2, -2, -2)
    assert k0_class(BandComplex(0, belt, 1)) == (0, 0, 1, 1, -1, -1)
    assert k0_class(BandComplex(1, belt, 2)) == (0, 0, -2, -2, 2, 2)
    with pytest.raises(ValueError):
        BandComplex(0, parse_walk(g, "2 -3 -5"), 1)
    with pytest.raises(ValueError):
        BandComplex(0, belt, 0)


def test_band_classes_are_zero_roots():
    for name in FIXTURE_NAMES:
        gq, g = _pair(name)
        gram = euler_analysis(gq).gramProjectives
        for belt in enumerate_belts(g, 6):
            for d in (1, 2):
                vec = k0_class(BandComplex(0, belt, d))
                assert qform_eval(gram, vec) == 0, (name, belt.render())


def test_band_check_is_implied_by_the_walk_check(quivers, random_pool,
                                                 genus_pool):
    # cli._check_one checks q on every walk of at most 4 edges and has no
    # band check of its own: the core of each belt met there is one of
    # those walks, closed and even with q = 0, and a band's class is a
    # multiple of its core's
    cases = [*quivers.values(), *(gq for _, gq in random_pool + genus_pool)]
    for gq in cases:
        g = to_ribbon(gq)
        gram = euler_analysis(gq).gramProjectives
        walks = {w.edges: w for w in enumerate_reduced_walks(g, 4)}
        belts = [w for w in walks.values() if classify_walk(w) == "belt"]
        for belt in belts + enumerate_belts(g, 3):
            assert belt.edges[:-1] in walks, belt.render()
            core = walks[belt.edges[:-1]]
            assert classify_walk(core) == "closed-even", belt.render()
            assert walk_q_value(core) == 0, belt.render()
            for d in (1, 2):
                vec = k0_class(BandComplex(0, belt, d))
                assert qform_eval(gram, vec) == 0, (belt.render(), d)


def test_inverse_shift_rule():
    # X(m, w) and X(m + deg w, inverse w) share their class
    for name in ("sixvertex", "amiot1", "smallrow2"):
        gq, g = _pair(name)
        for w in enumerate_reduced_walks(g, 4):
            a = k0_class(build_string_complex(gq, 0, w))
            b = k0_class(build_string_complex(gq, degree(w), w.inverse()))
            assert a == b, (name, w.render())


def test_parity_rule_small():
    # open walks give 1-roots, even closed walks 0, odd closed walks 2;
    # belt-shaped walks are open as walks and land on 1 like any open walk
    for name in FIXTURE_NAMES:
        gq, g = _pair(name)
        gram = euler_analysis(gq).gramProjectives
        for w in enumerate_reduced_walks(g, 5):
            if w.closed:
                expect = 0 if w.length % 2 == 0 else 2
            else:
                expect = 1
            vec = k0_class(build_string_complex(gq, 0, w))
            assert qform_eval(gram, vec) == expect, (name, w.render())


def test_root_classify_tags():
    gq, g = _pair("sixvertex")
    open_vec = k0_class(build_string_complex(gq, 0, parse_walk(g, "2 -3 -5 4 6 -2 1")))
    rc = root_classify(gq, open_vec)
    assert (rc.value, rc.tag) == (1, "1-root")
    assert "open walk" in rc.note
    rc = root_classify(gq, (0,) * 6)
    assert (rc.value, rc.tag) == (0, "0-root")
    gqL, gL = _pair("loop")
    rc = root_classify(gqL, k0_class(build_string_complex(gqL, 0, parse_walk(gL, "1"))))
    assert (rc.value, rc.tag) == (2, "2-root")


def _random_vectors(rng, n, count):
    """The zero vector, then random integer vectors of length n."""
    return [(0,) * n] + [tuple(rng.randint(-3, 3) for _ in range(n))
                         for _ in range(count)]


def test_root_classify_matches_the_gram_route(random_pool):
    # q read off B^tr x against x^tr (C + C^tr) x / 2, on arbitrary vectors;
    # counting a loop's edge once at its vertex fails on the loop fixture
    rng = random.Random(20261019)
    cases = [(name, load_fixture(name)) for name in FIXTURE_NAMES]
    cases += [("random %d" % k, gq) for k, (_, gq) in enumerate(random_pool)]
    for name, gq in cases:
        gram = euler_analysis(gq).gramProjectives
        n = len(gq.vertices)
        for x in _random_vectors(rng, n, 20 if name in FIXTURE_NAMES else 3):
            rc = root_classify(gq, x)
            assert rc.value == qform_eval(gram, x), (name, x)
            assert rc.tag == root_tag(rc.value)
        for bad in ((0,) * (n - 1), (0,) * (n + 1)):
            with pytest.raises(ValueError):
                root_classify(gq, bad)


def test_loop_odd_powers_are_two_roots():
    gq, g = _pair("loop")
    for t in (1, 3, 5):
        w = parse_walk(g, " ".join(["1"] * t))
        assert classify_walk(w) == "closed-odd"
        vec = k0_class(build_string_complex(gq, 0, w))
        assert root_classify(gq, vec).value == 2
    for t in (2, 4, 6):
        w = parse_walk(g, " ".join(["1"] * t))
        assert classify_walk(w) == "closed-even"
        vec = k0_class(build_string_complex(gq, 0, w))
        assert root_classify(gq, vec).value == 0


def test_perfect_classes_loop():
    gq, _ = _pair("loop")
    pc = enumerate_perfect_classes(gq, max_len=None)
    assert pc.positive
    assert sorted(pc.classes) == [(-1,), (0,), (1,)]
    # one vertex, not bipartite: 2 n^2 nonzero classes
    assert len([c for c in pc.classes if any(c)]) == 2
    assert pc.value_counts == {0: 1, 2: 2}


def test_perfect_classes_tree():
    gq, _ = _pair("tree")
    pc = enumerate_perfect_classes(gq, max_len=None)
    assert pc.positive
    # two vertices, bipartite: n^2 + n nonzero classes
    assert len([c for c in pc.classes if any(c)]) == 6
    assert sorted(pc.classes) == [(-1, 0), (-1, 1), (0, -1), (0, 1),
                                  (1, -1), (1, 0)]
    assert pc.value_counts == {1: 6}


def test_perfect_classes_nonpositive():
    gq, _ = _pair("sixvertex")
    pc = enumerate_perfect_classes(gq, max_len=4)
    assert not pc.positive
    assert len(pc.classes) == len(set(sorted(pc.classes)))


def test_perfect_class_values_match_root_classify():
    rng = random.Random(20261018)
    kinds = ("any", "tree", "odd1cycle")
    cases = [(name, load_fixture(name), 5) for name in FIXTURE_NAMES]
    for k in range(40):
        g = random_marked_ribbon_graph(rng, kind=kinds[k % 3], max_vertices=7)
        cases.append(("random %d" % k, from_ribbon(g), 6))
    for name, gq, max_len in cases:
        pc = enumerate_perfect_classes(gq, max_len=max_len)
        assert pc.values.keys() == pc.classes.keys()
        counts = {}
        for vec, val in pc.values.items():
            rc = root_classify(gq, vec)
            assert (val, root_tag(val)) == (rc.value, rc.tag), (name, vec)
            counts[val] = counts.get(val, 0) + 1
        assert counts == pc.value_counts, name


def test_perfect_classes_need_no_form_arithmetic(monkeypatch):
    # classes extend their prefix's class and values come from the witness,
    # so the enumeration makes no incidence_vector or qform_eval call, builds
    # no checked Walk, and reads walk_q_value once per class pair
    def snapshot(name):
        pc = enumerate_perfect_classes(load_fixture(name), max_len=6)
        return ({vec: (sign, w.edges) for vec, (sign, w) in pc.classes.items()},
                pc.values, pc.value_counts)

    def forbidden(*args):
        raise AssertionError("called during class enumeration")

    expected = {name: snapshot(name) for name in FIXTURE_NAMES}
    # qform_eval is forbidden both where it is defined and under derived's
    # own name, should derived import it again
    for module in (exact_linalg, derived):
        monkeypatch.setattr(module, "qform_eval", forbidden, raising=False)
    monkeypatch.setattr(derived, "incidence_vector", forbidden)
    monkeypatch.setattr(walks.Walk, "__init__", forbidden)
    valued = []
    real_value = derived.walk_q_value

    def counted(w):
        valued.append(w)
        return real_value(w)

    monkeypatch.setattr(derived, "walk_q_value", counted)
    for name in FIXTURE_NAMES:
        valued.clear()
        assert snapshot(name) == expected[name], name
        classes = expected[name][0]
        zero = (0,) * len(load_fixture(name).vertices)
        assert 2 * len(valued) == len(classes) + (zero in classes), name


def test_walk_class_path_builds_each_artefact_once(monkeypatch):
    # over the triangles of all reduced walks up to length 3, ar_translate
    # and coxeter build each anti-walk once per quiver, and root_classify
    # does no Gram matrix arithmetic
    calls = []
    original = walks.anti_walk

    def counted(g, vertex_id):
        calls.append(vertex_id)
        return original(g, vertex_id)

    def forbidden(*args):
        raise AssertionError("qform_eval called by root_classify")

    for module in (walks, invariants, derived):
        monkeypatch.setattr(module, "anti_walk", counted, raising=False)
    for module in (exact_linalg, derived):
        monkeypatch.setattr(module, "qform_eval", forbidden, raising=False)
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        g = to_ribbon(gq)
        calls.clear()
        coxeter(gq)
        for w in enumerate_reduced_walks(g, 3):
            tri = ar_translate(gq, 0, w)
            root_classify(gq, k0_class(tri.start))
            root_classify(gq, k0_class(tri.end))
        assert sorted(calls) == sorted(g.vertices), name


def _quiver_with_edges(rng, kind, n):
    """A quiver from random_marked_ribbon_graph with exactly n vertices."""
    while True:
        g = random_marked_ribbon_graph(rng, kind=kind, max_vertices=n + 1)
        if len(g.edges) == n:
            return from_ribbon(g)


@pytest.mark.parametrize("kind,n", [("tree", 15), ("odd1cycle", 15),
                                    ("tree", 23), ("odd1cycle", 23),
                                    ("tree", 40), ("odd1cycle", 40),
                                    ("tree", 60), ("odd1cycle", 60),
                                    ("tree", 63)])
def test_one_roots_are_walk_classes(kind, n):
    # the root theorem as sets on a positive form: the classes of walks with
    # q = 1 are exactly the vectors with q = 1.  At n = 63 the walks reach
    # length 128, yet every class entry lies in [-2, 2], so the one byte the
    # class search gives an entry still holds it
    gq = _quiver_with_edges(random.Random("%s:%d" % (kind, n)), kind, n)
    pc = enumerate_perfect_classes(gq, max_len=None)
    assert pc.positive
    assert all(-2 <= v <= 2 for vec in pc.classes for v in vec)
    walk_roots = {vec for vec, val in pc.values.items() if val == 1}
    short = short_vectors(euler_analysis(gq).gramProjectives, 2)
    assert walk_roots == {y for x in short for y in (x, tuple(-v for v in x))}


def test_random_positive_forms_saturate():
    # with max_len=None the call checks the class count, the q = 1 set and
    # the q = 2 count against the form; here on random positive quivers
    rng = random.Random(2026)
    for k in range(12):
        kind = "tree" if k % 2 == 0 else "odd1cycle"
        gq = _quiver_with_edges(rng, kind, rng.randint(20, 60))
        assert enumerate_perfect_classes(gq, max_len=None).positive, k


def test_bound_too_large():
    # an integer bound keeps |entry| <= max_len below 127, so the one byte
    # the class search gives an entry holds it
    assert WALK_LENGTH_LIMIT < 127
    gq, _ = _pair("sixvertex")
    with pytest.raises(BoundTooLarge):
        enumerate_perfect_classes(gq, max_len=11)
    # every class is asked for, but corank 2 makes them infinitely many
    with pytest.raises(BoundTooLarge, match="corank 2"):
        enumerate_perfect_classes(gq, max_len=None)


def _preorder_reference(gq, max_len):
    """Classes, witnesses and values by a recursive pass over every reduced
    walk in preorder, each a tuple of edges whose class is its prefix's
    class with one entry changed; a Walk is built only for a new class."""
    g = to_ribbon(gq)
    edge_index = g.edge_index
    # the edges that may follow each edge, in the chain order at its source
    after = {e: [j for j in map(g.oriented_with_target,
                                g.chains[g.vid_index[g.s_vertex(e)]])
                 if j != -e]
             for e in g.oriented_edges()}
    classes = {}
    values = {}

    def visit(edges, base):
        k = len(edges)
        i = edge_index[abs(edges[-1])]
        vec = base[:i] + (base[i] + (1 if k % 2 else -1),) + base[i + 1:]
        if vec not in classes:
            w = walks.Walk(g, edges)
            neg = tuple(-v for v in vec)
            classes[vec] = (0, w)
            classes.setdefault(neg, (1, w))
            if w.closed:
                values[vec] = values[neg] = 2 if k % 2 else 0
            else:
                values[vec] = values[neg] = 1
        if k < max_len:
            for j in after[edges[-1]]:
                visit(edges + (j,), vec)

    for e in g.oriented_edges():
        visit((e,), (0,) * len(gq.vertices))
    return classes, values


def test_state_search_keeps_every_witness():
    # the search skips a walk only when an earlier, finished search reached
    # its state with as much length left, so it must find the same first
    # walk for every class as a pass over all reduced walks
    cases = [(name, load_fixture(name), bound) for name in FIXTURE_NAMES
             for bound in range(1, 9 if name == "sixvertex" else 11)]
    rng = random.Random(1)
    kinds = ("any", "tree", "odd1cycle")
    for k in range(600):
        g = random_marked_ribbon_graph(rng, kind=kinds[k % 3], max_vertices=6)
        cases.append(("random %d" % k, from_ribbon(g), 1 + k % 8))
    assert len(cases) == 688
    for name, gq, bound in cases:
        pc = enumerate_perfect_classes(gq, max_len=bound)
        classes, values = _preorder_reference(gq, bound)
        got = {vec: (sign, w.edges) for vec, (sign, w) in pc.classes.items()}
        assert got == {vec: (sign, w.edges)
                       for vec, (sign, w) in classes.items()}, (name, bound)
        assert pc.values == values, (name, bound)
        # walk-classes reports the classes in this order
        assert list(pc.classes) == list(classes), (name, bound)
        assert list(pc.values) == list(values), (name, bound)


def test_saturated_classes_are_checked_against_the_form(monkeypatch, capsys):
    real = derived.short_vectors

    def drop_one(gram, bound):
        return real(gram, bound)[1:]

    monkeypatch.setattr(derived, "short_vectors", drop_one)
    for name in ("tree", "smallrow2"):
        with pytest.raises(InternalMismatch, match="1-roots differ"):
            enumerate_perfect_classes(load_fixture(name), max_len=None)
    # tree has n = 2, so a bound of 6 reaches 2n + 2 and 5 does not
    enumerate_perfect_classes(load_fixture("tree"), max_len=5)
    assert main(["roots", str(FIXTURES / "tree.quiver"), "--max-len", "6"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "1-roots differ" in err


def test_ar_triangle_frozen():
    gq, g = _pair("amiot1")
    tri = ar_translate(gq, 0, parse_walk(g, "-1 3 5"))
    assert tri.shift == 1
    assert (tri.start.m, tri.start.walk.render()) == (0, "-1 3 5")
    assert [(x.m, x.walk.render()) for x in tri.middle] == [
        (1, "4 -1 2 -1 3 5"), (0, "-1 3 5 -2 1 -4")]
    assert (tri.end.m, tri.end.walk.render()) == (1, "4 -1 2 -1 3 5 -2 1 -4")

    gq, g = _pair("loop")
    tri = ar_translate(gq, 0, parse_walk(g, "1"))
    assert tri.shift == -1
    # the right extension is trivial, so the middle holds the left one only
    assert [(x.m, x.walk.render()) for x in tri.middle] == [(-1, "1 1")]
    assert (tri.end.m, tri.end.walk.render()) == (-1, "1")
    with pytest.raises(TrivialInput):
        ar_translate(gq, 0, trivial_walk(g, "a1"))


def _triangle_values(gq, g):
    """(m, edges, class) of each member of each triangle over the reduced
    walks up to length 3."""
    return [[(x.m, x.walk.edges, k0_class(x))
             for x in (tri.start, *tri.middle, tri.end)] + [tri.shift]
            for tri in (ar_translate(gq, 0, w)
                        for w in enumerate_reduced_walks(g, 3))]


def test_triangles_and_classes_unfold_no_junction(monkeypatch):
    # a triangle and its members' classes are read off walks: with every
    # routine that unfolds a junction failing, they come out the same
    pairs = [_pair(name) for name in FIXTURE_NAMES]
    expected = [_triangle_values(gq, g) for gq, g in pairs]

    def unfold(*args):
        raise RuntimeError("a junction was unfolded")

    for module in (derived, walks):
        monkeypatch.setattr(module, "connecting_path", unfold)
    monkeypatch.setattr(walks, "deg_step", unfold)
    assert [_triangle_values(gq, g) for gq, g in pairs] == expected
    # the patch does reach the unfolding
    gq, g = _pair("amiot1")
    with pytest.raises(RuntimeError):
        ar_translate(gq, 0, parse_walk(g, "-1 3 5")).start.terms


def test_ar_one_loop_family():
    gq, g = _pair("loop")
    for ell in range(1, 7):
        w = parse_walk(g, " ".join(["1"] * ell))
        tri = ar_translate(gq, 0, w)
        assert tri.shift == -1, ell
        walks = [x.walk.render() for x in tri.middle]
        assert " ".join(["1"] * (ell + 1)) in walks, ell
        if ell > 1:
            assert " ".join(["1"] * (ell - 1)) in walks, ell
        assert tri.end.walk.render() == " ".join(["1"] * ell), ell
        assert tri.end.m == -1, ell


def test_ar_k0_identities():
    # the class sum over the triangle vanishes, and the Coxeter matrix
    # carries the end class back to the start class
    for name in FIXTURE_NAMES:
        gq, g = _pair(name)
        psi, _ = coxeter(gq)
        for w in enumerate_reduced_walks(g, 3):
            tri = ar_translate(gq, 0, w)
            s = k0_class(tri.start)
            e = k0_class(tri.end)
            mid = [k0_class(x) for x in tri.middle]
            total = tuple(a + b - sum(vs) for a, b, vs in
                          zip(s, e, zip(*mid) if mid else [()] * len(s)))
            assert all(v == 0 for v in total), (name, w.render())
            assert psi.apply(e) == s, (name, w.render())


def test_ar_random_psi_identity():
    rng = random.Random(8)
    checked = 0
    while checked < 60:
        gq = from_ribbon(random_marked_ribbon_graph(rng, kind="any"))
        g = to_ribbon(gq)
        psi, _ = coxeter(gq)
        for w in enumerate_reduced_walks(g, 2):
            tri = ar_translate(gq, 0, w)
            assert psi.apply(k0_class(tri.end)) == k0_class(tri.start)
            checked += 1
            if checked >= 60:
                break
