"""Acceptance gate: ten checks, one per shipped guarantee.

Each test prints a single pass/fail line under pytest -v.  The checks pin
exact integer identities on the nine bundled examples and on the shared
500-graph random pool, so every failure is a real defect, never noise.
"""

import heapq
import itertools
import random

from gentlekit import (
    cartan_matrix,
    from_ribbon,
    incidence_matrix,
    random_marked_ribbon_graph,
    to_ribbon,
)
from gentlekit.brauer import BrauerGraph, brauer_cartan, brauer_classify
from gentlekit.derived import (
    BandComplex,
    ar_translate,
    build_string_complex,
    enumerate_perfect_classes,
    k0_class,
)
from gentlekit.exact_linalg import (
    IntPolynomial,
    char_poly,
    qform_eval,
    rank_corank,
    short_vectors,
)
from gentlekit.invariants import (
    AAGInvariant,
    _orbit_pairs,
    aag_invariant,
    coxeter,
    euler_analysis,
    multi_clock,
)
from gentlekit.ribbon import (
    RibbonGraph,
    forbidden_ribbon,
    is_bipartite,
    quiver_canonical_form,
    ribbon_canonical_form,
)
from gentlekit.quiver import string_functions
from gentlekit.walks import (
    enumerate_belts,
    enumerate_reduced_walks,
    faces,
    incidence_vector,
    parse_walk,
)

from conftest import FIXTURE_NAMES
from test_quiver import _count_pairs_bruteforce


def _all_instances(quivers, random_pool):
    for name in FIXTURE_NAMES:
        yield quivers[name]
    for _, gq in random_pool:
        yield gq


def test_criterion_01_reference_triple_of_derived_invariants(quivers):
    expect = {"amiot0": (1, 2, "A3"), "amiot1": (0, 1, "D4"),
              "amiot2": (1, 2, "A3")}
    for name, (nabla, crk, dyn) in expect.items():
        gq = quivers[name]
        assert str(aag_invariant(gq)) == "{(4,6)}", name
        _, poly = coxeter(gq)
        assert poly.coeffs == (1, -1, 0, 0, -1, 1), name
        assert str(poly) == "z^5 - z^4 - z + 1", name
        ea = euler_analysis(gq)
        assert (ea.nabla, ea.corank, ea.dynkinProjectives) == \
            (nabla, crk, dyn), name


def test_criterion_02_cartan_symmetrization_identities(quivers, random_pool):
    checked = finite = 0
    for gq in _all_instances(quivers, random_pool):
        g = to_ribbon(gq)
        c = cartan_matrix(gq)
        sym = c + c.transpose()
        inc = incidence_matrix(g)
        assert sym.to_lists() == (inc * inc.transpose()).to_lists()
        if gq.global_dimension_finite:
            fr = forbidden_ribbon(gq)
            inc_hat = incidence_matrix(fr.graph, fr.sigma_hat)
            lhs = c * (inc_hat * inc_hat.transpose()) * c.transpose()
            assert lhs.to_lists() == sym.to_lists()
            finite += 1
        checked += 1
    assert checked >= 509
    assert finite >= 300


def test_criterion_03_corank_counts_edges_vertices_bipartiteness(
        quivers, random_pool):
    for gq in _all_instances(quivers, random_pool):
        g = to_ribbon(gq)
        c = cartan_matrix(gq)
        _, crk = rank_corank(c + c.transpose())
        expected = len(gq.arrows) - len(gq.vertices) + int(is_bipartite(g))
        assert crk == expected
        assert euler_analysis(gq).corank == crk


def test_criterion_04_coxeter_polynomial_equals_face_product(
        quivers, random_pool):
    for gq in _all_instances(quivers, random_pool):
        psi, poly = coxeter(gq)
        assert char_poly(psi) == poly
        # rebuild the face product from scratch as an oracle
        prod = IntPolynomial.const(1)
        for f in faces(to_ribbon(gq)):
            n, m = f.pair
            if n == 0:
                continue
            factor = IntPolynomial.monomial(n) - \
                IntPolynomial.const((-1) ** (n + m))
            prod = prod * factor
        e = len(gq.arrows) - len(gq.vertices)
        z1 = IntPolynomial([-1, 1])
        # poly = prod * (z-1)^e, with (z-1)^(-e) moved to the left for e < 0;
        # multiplying by (z-1)^k is injective on Z[z]
        assert poly * z1 ** max(-e, 0) == prod * z1 ** max(e, 0)
    _, poly = coxeter(quivers["nonpalin"])
    assert str(poly) == "z^2 - 1"


def _parity_expect(w):
    if not w.closed:
        return 1
    return 0 if w.length % 2 == 0 else 2


def test_criterion_05_class_values_follow_walk_parity(quivers, random_pool):
    for name in FIXTURE_NAMES:
        gq = quivers[name]
        g = to_ribbon(gq)
        c = cartan_matrix(gq)
        gram = c + c.transpose()
        for w in enumerate_reduced_walks(g, 8):
            sc = build_string_complex(gq, 0, w)
            assert qform_eval(gram, k0_class(sc)) == _parity_expect(w), \
                "%s: %s" % (name, w.render())
        for b in enumerate_belts(g, 8):
            for d in (1, 2):
                vec = k0_class(BandComplex(0, b, d))
                assert qform_eval(gram, vec) == 0, \
                    "%s: %s" % (name, b.render())
    # the walk class is the signed incidence vector, so the value is
    # unchanged if the complex construction is skipped; that keeps the
    # random sweep cheap
    for g, gq in random_pool[:60]:
        c = cartan_matrix(gq)
        gram = c + c.transpose()
        for w in enumerate_reduced_walks(g, 6):
            val = qform_eval(gram, incidence_vector(w))
            assert val == _parity_expect(w), w.render()


def test_criterion_06_root_counts_by_walks_and_by_box_search():
    rng = random.Random(7)
    seen_mc = seen_other = 0
    for k in range(20):
        kind = "tree" if k % 2 == 0 else "odd1cycle"
        gq = from_ribbon(random_marked_ribbon_graph(rng, kind=kind,
                                                    max_vertices=5))
        pc = enumerate_perfect_classes(gq, max_len=None)
        assert pc.positive
        n = len(gq.vertices)
        c = cartan_matrix(gq)
        gram = c + c.transpose()
        nonzero = sum(cnt for val, cnt in pc.value_counts.items() if val > 0)
        # the short-vector search bounds coordinates through positivity and
        # counts the vectors with q = 1, both signs, without touching a walk
        box = 2 * len(short_vectors(gram, 2))
        if multi_clock(gq) == 1:
            assert nonzero == n * n + n
            assert pc.value_counts.get(1, 0) == n * n + n
            assert box == n * n + n
            seen_mc += 1
        else:
            assert nonzero == 2 * n * n
            assert pc.value_counts.get(1, 0) == 2 * (n * n - n)
            assert box == 2 * (n * n - n)
            assert pc.value_counts.get(2, 0) == 2 * n
            seen_other += 1
    assert seen_mc >= 8 and seen_other >= 8


def test_criterion_07_translation_triangles(quivers, random_pool):
    gq = quivers["amiot1"]
    g = to_ribbon(gq)
    tri = ar_translate(gq, 0, parse_walk(g, "-1 3 5"))
    assert (tri.start.m, tri.start.walk.render()) == (0, "-1 3 5")
    assert {(s.m, s.walk.render()) for s in tri.middle} == \
        {(1, "4 -1 2 -1 3 5"), (0, "-1 3 5 -2 1 -4")}
    assert (tri.end.m, tri.end.walk.render()) == (1, "4 -1 2 -1 3 5 -2 1 -4")
    assert tri.shift == 1

    loop = quivers["loop"]
    gl = to_ribbon(loop)
    for ell in range(1, 7):
        w = parse_walk(gl, " ".join(["1"] * ell))
        tri = ar_translate(loop, 0, w)
        middle = [(s.m, s.walk.render()) for s in tri.middle]
        assert middle[0] == (-1, " ".join(["1"] * (ell + 1)))
        if ell == 1:
            # the right extension is trivial
            assert len(middle) == 1
        else:
            assert middle[1:] == [(0, " ".join(["1"] * (ell - 1)))]
        assert tri.shift == -1

    checked = 0
    for g, gq in random_pool:
        psi, _ = coxeter(gq)
        g2 = to_ribbon(gq)
        for w in enumerate_reduced_walks(g2, 3):
            tri = ar_translate(gq, 0, w)
            assert psi.apply(k0_class(tri.end)) == k0_class(tri.start)
            checked += 1
            if checked >= 1000:
                return
    raise AssertionError("only %d translation checks ran" % checked)


def test_criterion_08_face_and_orbit_pair_multisets_agree(
        quivers, random_pool):
    for gq in _all_instances(quivers, random_pool):
        g = to_ribbon(gq)
        via_faces = AAGInvariant([f.pair for f in faces(g)])
        via_orbits = AAGInvariant(_orbit_pairs(gq))
        assert via_faces == via_orbits
        assert aag_invariant(gq) == via_faces
    assert str(aag_invariant(quivers["nonpalin"])) == "{(0,2), (2,0)}"


def test_criterion_09_round_trips_and_exhaustive_pair_count(
        quivers, random_pool):
    for name in FIXTURE_NAMES:
        gq = quivers[name]
        back = from_ribbon(to_ribbon(gq))
        assert quiver_canonical_form(back) == quiver_canonical_form(gq), name
    for g, gq in random_pool:
        assert ribbon_canonical_form(to_ribbon(gq)) == \
            ribbon_canonical_form(g)
        assert quiver_canonical_form(from_ribbon(to_ribbon(gq))) == \
            quiver_canonical_form(gq)

    small = [quivers[name] for name in FIXTURE_NAMES]
    small += [gq for _, gq in random_pool[::10]
              if len(gq.vertices) <= 6]
    assert len(small) >= 30
    for gq in small:
        b = gq.base
        n = len(b.vertices)
        built = set()
        for dirs in itertools.product((1, -1), repeat=n):
            pair = string_functions(gq, dict(zip(b.vertices, dirs)))
            assert pair.check(b)
            built.add(pair.as_tuple(b))
        assert len(built) == 2 ** n
        assert _count_pairs_bruteforce(b) == 2 ** n


# --- criterion 10: the graph family ----------------------------------------


def _labeled_trees(nv):
    if nv == 1:
        yield ()
        return
    for seq in itertools.product(range(nv), repeat=nv - 2):
        deg = [1] * nv
        for s in seq:
            deg[s] += 1
        leaves = [i for i in range(nv) if deg[i] == 1]
        heapq.heapify(leaves)
        edges = []
        for s in seq:
            leaf = heapq.heappop(leaves)
            edges.append((min(leaf, s), max(leaf, s)))
            deg[s] -= 1
            if deg[s] == 1:
                heapq.heappush(leaves, s)
        a = heapq.heappop(leaves)
        b = heapq.heappop(leaves)
        edges.append((min(a, b), max(a, b)))
        yield tuple(edges)


def _tree_shapes(nv):
    seen = {}
    for edges in _labeled_trees(nv):
        adj = {i: [] for i in range(nv)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)

        def enc(x, p):
            return "(" + "".join(sorted(enc(y, x)
                                        for y in adj[x] if y != p)) + ")"

        canon = min(enc(r, -1) for r in range(nv))
        if canon not in seen:
            seen[canon] = edges
    return list(seen.values())


def _connected(nv, slots):
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in slots:
        if a != b:
            parent[find(a)] = find(b)
    return len({find(v) for v in range(nv)}) == 1


def _graph_family(max_edges=6):
    """Every connected multigraph shape (loops allowed) with <= max_edges.

    Up to four vertices all labeled graphs are enumerated directly; larger
    vertex counts force near-tree shapes, which are covered as unlabeled
    trees plus every way of attaching the remaining edge budget.
    """
    for nv in range(1, 5):
        slot_types = [(i, j) for i in range(nv) for j in range(i, nv)]
        for ne in range(max(1, nv - 1), max_edges + 1):
            for combo in itertools.combinations_with_replacement(slot_types,
                                                                 ne):
                if _connected(nv, combo):
                    yield nv, combo
    for nv in range(5, max_edges + 2):
        slot_types = [(i, j) for i in range(nv) for j in range(i, nv)]
        extras = max_edges - (nv - 1)
        for tree in _tree_shapes(nv):
            for k in range(extras + 1):
                for combo in itertools.combinations_with_replacement(
                        slot_types, k):
                    yield nv, tree + combo


def _ribbon_from_slots(nv, slots, perm=None):
    counts = [0] * nv
    halves = []
    for a, b in slots:
        ha = (a, counts[a])
        counts[a] += 1
        hb = (b, counts[b])
        counts[b] += 1
        halves.append((ha, hb))
    if perm is not None:
        halves = [((a, perm[a][pa]), (b, perm[b][pb]))
                  for (a, pa), (b, pb) in halves]
    pairs = [(eid, h1, h2) for eid, (h1, h2) in enumerate(halves, start=1)]
    names = tuple("n%d" % i for i in range(nv))
    return RibbonGraph(names, tuple(counts), pairs)


def _shape_tag(nv, slots):
    ne = len(slots)
    if ne == nv - 1:
        return "tree"
    if ne != nv:
        return "other"
    deg = [0] * nv
    for a, b in slots:
        deg[a] += 1
        deg[b] += 1
    alive = set(range(ne))
    changed = True
    while changed:
        changed = False
        for k in list(alive):
            a, b = slots[k]
            if a != b and (deg[a] == 1 or deg[b] == 1):
                alive.discard(k)
                deg[a] -= 1
                deg[b] -= 1
                changed = True
    return "odd-1-cycle" if len(alive) % 2 == 1 else "other"


def test_criterion_10_brauer_positivity_over_small_graph_family():
    rng = random.Random(10)
    total = 0
    for nv, slots in _graph_family():
        g = _ribbon_from_slots(nv, slots)
        mult = {v: rng.randrange(1, 5) for v in g.vertices}
        bg = BrauerGraph(g, mult)
        verdict = brauer_classify(bg)
        tag = _shape_tag(nv, slots)
        assert verdict.tag == tag, (nv, slots)
        positive = tag in ("tree", "odd-1-cycle")
        assert (verdict.definiteness == "positive-definite") == positive
        assert (verdict.corank == 0) == positive

        plain = BrauerGraph(g)
        inc = incidence_matrix(g)
        assert brauer_cartan(plain).to_lists() == \
            (inc * inc.transpose()).to_lists()
        expect_rep = {"tree": "finite", "odd-1-cycle": "1-domestic",
                      "other": None}[tag]
        assert brauer_classify(plain).repType == expect_rep

        if total % 15 == 0:
            counts = [0] * nv
            for a, b in slots:
                counts[a] += 1
                counts[b] += 1
            perm = {i: rng.sample(range(counts[i]), counts[i])
                    for i in range(nv)}
            g2 = _ribbon_from_slots(nv, slots, perm)
            bg2 = BrauerGraph(g2, {v: mult[v] for v in g2.vertices})
            assert brauer_cartan(bg2).to_lists() == \
                brauer_cartan(bg).to_lists(), (nv, slots)
        total += 1
    assert total >= 3700
