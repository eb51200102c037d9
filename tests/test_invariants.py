import random
from fractions import Fraction

import pytest

from gentlekit import (
    IntMatrix,
    IntPolynomial,
    InternalMismatch,
    anti_walk,
    cartan_matrix,
    det,
    from_ribbon,
    incidence_matrix,
    incidence_vector,
    is_bipartite,
    load_gentle,
    quiver_canonical_form,
    random_marked_ribbon_graph,
    rank_corank,
    ribbon_canonical_form,
    to_ribbon,
    validate_gentle,
)
from gentlekit.quiver import BoundQuiver
from gentlekit import invariants
from gentlekit.cli import main
from gentlekit.invariants import (
    FINGERPRINT_FIELDS,
    aag_invariant,
    compare,
    coxeter,
    euler_analysis,
    fingerprint,
    multi_clock,
    ribbon_faces,
)
from gentlekit.walks import parse_walk

from conftest import FIXTURE_NAMES, FIXTURES, load_fixture

EULER_EXPECT = {
    # name: (nabla, rank, corank, dynP, dynS, unitP, unitS, connS)
    "loop": (0, 1, 0, "HalfA1", None, False, None, None),
    "tree": (1, 2, 0, "A2", "A2", True, True, True),
    "smallrow2": (0, 2, 0, "C2", "C2", False, False, True),
    "nonpalin": (1, 1, 1, "A1", None, True, None, None),
    "amiot0": (1, 3, 2, "A3", "A3", True, True, True),
    "amiot1": (0, 4, 1, "D4", "D4", True, True, True),
    "amiot2": (1, 3, 2, "A3", "A3", True, True, True),
    "twosided": (1, 1, 2, "A1", None, True, None, None),
    "sixvertex": (0, 4, 2, "D4", "C4", True, False, True),
}

AAG_EXPECT = {
    "loop": "{(0,1), (1,0)}",
    "tree": "{(3,1)}",
    "smallrow2": "{(1,0), (1,2)}",
    "nonpalin": "{(0,2), (2,0)}",
    "amiot0": "{(4,6)}",
    "amiot1": "{(4,6)}",
    "amiot2": "{(4,6)}",
    "twosided": "{(0,2)x2, (2,0)}",
    "sixvertex": "{(2,2), (2,6)}",
}

PSI_EXPECT = {
    "loop": "z + 1",
    "tree": "z^2 + z + 1",
    "smallrow2": "z^2 + 2*z + 1",
    "nonpalin": "z^2 - 1",
    "amiot0": "z^5 - z^4 - z + 1",
    "amiot1": "z^5 - z^4 - z + 1",
    "amiot2": "z^5 - z^4 - z + 1",
    "twosided": "z^3 - z^2 - z + 1",
    "sixvertex": "z^6 - 2*z^5 - z^4 + 4*z^3 - z^2 - 2*z + 1",
}


def test_euler_frozen():
    for name, want in EULER_EXPECT.items():
        ea = euler_analysis(load_fixture(name))
        got = (ea.nabla, ea.rank, ea.corank, ea.dynkinProjectives,
               ea.dynkinSimples, ea.unitInProjectives, ea.unitInSimples,
               ea.connectedInSimples)
        assert got == want, (name, got)


def test_gram_matrices_frozen():
    ea = euler_analysis(load_fixture("smallrow2"))
    assert ea.gramProjectives.to_lists() == [[2, 2], [2, 4]]
    assert ea.gramSimples.to_lists() == [[4, -2], [-2, 2]]
    ea = euler_analysis(load_fixture("tree"))
    assert ea.gramProjectives.to_lists() == [[2, 1], [1, 2]]
    assert ea.gramSimples.to_lists() == [[2, -1], [-1, 2]]
    ea = euler_analysis(load_fixture("loop"))
    assert ea.gramProjectives.to_lists() == [[4]]
    assert ea.gramSimples is None


def test_gram_identity_direct():
    # C + C^tr against the unsigned incidence product, recomputed here
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        c = cartan_matrix(gq)
        inc = incidence_matrix(to_ribbon(gq))
        assert (c + c.transpose()).to_lists() == \
            (inc * inc.transpose()).to_lists(), name


def test_simples_gram_conjugation():
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        ea = euler_analysis(gq)
        if ea.gramSimples is None:
            assert not gq.global_dimension_finite, name
            continue
        c = cartan_matrix(gq)
        assert (c * ea.gramSimples * c.transpose()).to_lists() == \
            ea.gramProjectives.to_lists(), name


def test_multi_clock_equals_bipartite():
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        assert multi_clock(gq) == (1 if is_bipartite(to_ribbon(gq)) else 0), name


def test_disconnected_simples_support():
    gq = load_gentle(
        "vertices 1 2 3 4;\n"
        "arrow x0_1: 2 -> 1;\narrow x0_2: 4 -> 2;\n"
        "arrow x1_1: 1 -> 4;\narrow x2_1: 2 -> 3;\n"
        "rel x0_2.x1_1;\nrel x1_1.x0_1;\nrel x2_1.x0_2;\n")
    ea = euler_analysis(gq)
    assert ea.gramSimples.to_lists() == [
        [2, 0, -1, -1], [0, 0, 0, 0], [-1, 0, 2, 1], [-1, 0, 1, 2]]
    assert ea.connectedInSimples is False
    assert ea.dynkinSimples == "Disconnected"
    # the projective side is unaffected
    assert ea.dynkinProjectives is not None


def test_aag_frozen():
    for name, want in AAG_EXPECT.items():
        assert str(aag_invariant(load_fixture(name))) == want, name
    aag = aag_invariant(load_fixture("twosided"))
    assert aag.pairs == {(0, 2): 2, (2, 0): 1}
    aag = aag_invariant(load_fixture("sixvertex"))
    assert aag.pairs == {(2, 2): 1, (2, 6): 1}


def assert_implied_identities(gq):
    """The identities the library proves from its other checks instead of
    checking them on every call."""
    g = to_ribbon(gq)
    c = cartan_matrix(gq)
    ident = IntMatrix.identity(len(gq.vertices))
    j_hat = IntMatrix.from_columns(
        [incidence_vector(anti_walk(g, v)) for v in g.vertices])
    psi, _ = coxeter(gq)
    assert psi * (ident - j_hat * j_hat.transpose() * c) == ident
    # orbit sizes add up to |V(G)| and lengths to |Q1|
    aag = aag_invariant(gq)
    assert sum(n * k for (n, m), k in aag.pairs.items()) == len(g.vertices)
    assert sum(m * k for (n, m), k in aag.pairs.items()) == len(gq.arrows)
    for f in ribbon_faces(gq):
        assert (f.length - f.deg_closed) % 2 == 0, f


def test_implied_identities_on_fixtures():
    for name in FIXTURE_NAMES:
        assert_implied_identities(load_fixture(name))


def test_coxeter_frozen():
    for name, want in PSI_EXPECT.items():
        psi, poly = coxeter(load_fixture(name))
        assert str(poly) == want, name
        n = len(load_fixture(name).vertices)
        assert psi.shape == (n, n), name
    psi, _ = coxeter(load_fixture("tree"))
    assert psi.to_lists() == [[-1, -1], [1, 0]]
    psi, _ = coxeter(load_fixture("nonpalin"))
    assert psi.to_lists() == [[0, -1], [-1, 0]]
    psi, _ = coxeter(load_fixture("twosided"))
    assert psi.to_lists() == [[0, -1, -1], [0, 1, 0], [-1, -1, 0]]


def test_coxeter_rejects_a_wrong_char_poly(monkeypatch):
    # the face-product comparison fires for e = #arrows - #vertices of
    # either sign: a char poly off by a factor z + 1 must be caught
    true_char_poly = invariants.char_poly
    monkeypatch.setattr(invariants, "char_poly",
                        lambda m: true_char_poly(m) * IntPolynomial([1, 1]))
    for name, e in (("tree", -1), ("nonpalin", 0), ("amiot1", 1)):
        gq = load_fixture(name)
        assert len(gq.arrows) - len(gq.vertices) == e, name
        with pytest.raises(InternalMismatch):
            coxeter(gq)


def test_analyze_transposes_c_and_builds_b_once(monkeypatch, capsys):
    # euler_analysis and coxeter read C^tr and the plain incidence matrix B
    # off one per-quiver table
    cartans = []
    transposed = []
    plain = []
    real_cartan = invariants.cartan_matrix
    real_transpose = IntMatrix.transpose
    real_incidence = invariants.incidence_matrix

    def cartan(gq):
        cartans.append(real_cartan(gq))
        return cartans[-1]

    def transpose(self):
        transposed.append(self)
        return real_transpose(self)

    def incidence(g, sigma=None):
        if sigma is None:
            plain.append(g)
        return real_incidence(g, sigma)

    monkeypatch.setattr(invariants, "cartan_matrix", cartan)
    monkeypatch.setattr(IntMatrix, "transpose", transpose)
    monkeypatch.setattr(invariants, "incidence_matrix", incidence)
    for name in FIXTURE_NAMES:
        cartans.clear()
        transposed.clear()
        plain.clear()
        assert main(["analyze", str(FIXTURES / ("%s.quiver" % name))]) == 0
        capsys.readouterr()
        c = cartans[0]
        assert all(m is c for m in cartans), name
        assert sum(m is c for m in transposed) == 1, name
        assert len(plain) == 1, name


def test_coxeter_is_minus_c_inverse_c_transpose():
    # over the rationals, finite global dimension gives Psi = -C^{-1} C^tr
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        if not gq.global_dimension_finite:
            continue
        c = cartan_matrix(gq).to_lists()
        n = len(c)
        aug = [[Fraction(c[i][j]) for j in range(n)] +
               [Fraction(-c[j][i]) for j in range(n)] for i in range(n)]
        for k in range(n):
            p = next(i for i in range(k, n) if aug[i][k] != 0)
            aug[k], aug[p] = aug[p], aug[k]
            aug[k] = [x / aug[k][k] for x in aug[k]]
            for i in range(n):
                if i != k and aug[i][k] != 0:
                    f = aug[i][k]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
        solved = [row[n:] for row in aug]
        psi, _ = coxeter(gq)
        assert solved == [[Fraction(x) for x in row]
                          for row in psi.to_lists()], name


def test_coxeter_preserves_euler_form():
    # Psi^tr (C + C^tr) Psi = C + C^tr: the translation is an isometry
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        psi, _ = coxeter(gq)
        gram = euler_analysis(gq).gramProjectives
        assert (psi.transpose() * gram * psi).to_lists() == gram.to_lists(), name


def test_fingerprint_fields_and_compare():
    f0 = fingerprint(load_fixture("amiot0"))
    f1 = fingerprint(load_fixture("amiot1"))
    f2 = fingerprint(load_fixture("amiot2"))
    assert f0.numQVertices == 5 and f0.numQArrows == 6
    assert f0.numGVertices == 4 and f0.numGEdges == 5
    assert f0.bipartite is True and f1.bipartite is False
    assert f0.detCartan == 1

    r = compare(f0, f1)
    assert r.verdict == "not derived equivalent"
    assert set(r.differing) == {"bipartite", "nabla", "corank"}
    r = compare(f0, f2)
    assert r.verdict == "inconclusive"
    assert r.differing == ()
    r = compare(f0, f0)
    assert r.verdict == "inconclusive"

    for field in ("nabla", "corank", "aag", "coxeterPoly"):
        assert field in FINGERPRINT_FIELDS


def _relabelled(gq, rng):
    """gq with new vertex ids and arrow names, declared in a new order."""
    base = gq.base
    ids = dict(zip(base.vertices, rng.sample(range(1, 1000),
                                             len(base.vertices))))
    names = {a.name: "b%d" % k for k, a in enumerate(base.arrows)}
    arrows = [(names[a.name], ids[a.source], ids[a.target])
              for a in base.arrows]
    relations = [(names[x], names[y]) for x, y in base.relations]
    for items in (arrows, relations):
        rng.shuffle(items)
    return validate_gentle(BoundQuiver(
        rng.sample(list(ids.values()), len(ids)), arrows, relations))


def _opposite(gq):
    """The opposite algebra: every arrow reversed, so "y then x" is
    forbidden where "x then y" was."""
    base = gq.base
    return validate_gentle(BoundQuiver(
        base.vertices, [(a.name, a.target, a.source) for a in base.arrows],
        [(y, x) for x, y in base.relations]))


def test_fingerprint_ignores_labels_and_order(quivers, random_pool):
    # the canonical forms keep ids: the A3 quivers 1 -> 2 -> 3 and
    # 3 -> 2 -> 1 get different forms and the same fingerprint
    a3 = load_gentle("vertices 1 2 3; arrow a: 1 -> 2; arrow b: 2 -> 3;")
    a3_back = load_gentle("vertices 1 2 3; arrow a: 3 -> 2; arrow b: 2 -> 1;")
    assert quiver_canonical_form(a3) != quiver_canonical_form(a3_back)
    assert (ribbon_canonical_form(to_ribbon(a3))
            != ribbon_canonical_form(to_ribbon(a3_back)))
    assert fingerprint(a3) == fingerprint(a3_back)
    rng = random.Random(29)
    gqs = [*quivers.values(), *(gq for _, gq in random_pool)]
    for gq in gqs:
        f = fingerprint(gq)
        assert fingerprint(_relabelled(gq, rng)) == f, gq
        assert fingerprint(_opposite(gq)) == f, gq
    assert len(gqs) >= 500


def test_per_quiver_results_are_shared_and_frozen():
    gq = load_fixture("amiot1")
    for fn in (to_ribbon, cartan_matrix, euler_analysis, aag_invariant,
               coxeter, fingerprint):
        assert fn(gq) is fn(gq), fn.__name__
    assert parse_walk(to_ribbon(gq), "-1 3 5") == parse_walk(to_ribbon(gq),
                                                             "-1 3 5")
    # a quiver loaded again gets results of its own
    assert euler_analysis(load_fixture("amiot1")) is not euler_analysis(gq)
    for result, field in ((euler_analysis(gq), "nabla"),
                          (fingerprint(gq), "corank")):
        with pytest.raises(AttributeError):
            setattr(result, field, 7)


def test_random_euler_identities():
    rng = random.Random(424242)
    for _ in range(120):
        gq = from_ribbon(random_marked_ribbon_graph(rng, kind="any"))
        g = to_ribbon(gq)
        ea = euler_analysis(gq)
        nv, na = len(gq.vertices), len(gq.arrows)
        assert ea.corank == na - nv + ea.nabla
        assert ea.rank == 2 * nv - na - ea.nabla
        assert ea.nabla == (1 if is_bipartite(g) else 0)
        # the internal mismatch guards inside these calls double as checks
        aag_invariant(gq)
        coxeter(gq)


def test_large_random_identity_sweep():
    # the same identities on quivers of up to about 40 vertices
    rng = random.Random(606060)
    kinds = ("any", "tree", "odd1cycle")
    sizes = []
    for k in range(60):
        gq = from_ribbon(random_marked_ribbon_graph(rng, kind=kinds[k % 3],
                                                    max_vertices=40))
        nv, na = len(gq.vertices), len(gq.arrows)
        sizes.append(nv)
        ea = euler_analysis(gq)
        assert ea.corank == na - nv + ea.nabla
        assert ea.rank == 2 * nv - na - ea.nabla
        psi, poly = coxeter(gq)
        assert len(poly.coeffs) - 1 == nv
        assert_implied_identities(gq)
    assert max(sizes) >= 35 and sum(n >= 20 for n in sizes) >= 20


def test_cartan_determinant_and_gram_rank_on_random_quivers(quivers):
    # Holm, Cartan determinants for gentle algebras (Arch. Math. 85, 2005):
    # det C is the product of 1 - (-1)^m over the AAG pairs (0, m), each to
    # its multiplicity.  The Gram matrix C + C^tr = B B^tr has the rank of
    # B^tr, which euler_analysis reads.
    rng = random.Random(3)
    kinds = ("any", "tree", "odd1cycle")
    gqs = [from_ribbon(random_marked_ribbon_graph(rng, kind=kinds[k % 3]))
           for k in range(1500)]
    dets = set()
    for gq in gqs + list(quivers.values()):
        c = cartan_matrix(gq)
        holm = 1
        for (n, m), mult in aag_invariant(gq).pairs.items():
            if n == 0:
                holm *= (1 - (-1) ** m) ** mult
        assert det(c) == holm, gq
        dets.add(holm)
        inc = incidence_matrix(to_ribbon(gq))
        assert rank_corank(inc.transpose()) == rank_corank(c + c.transpose())
    assert dets == {0, 1, 2, 4, 8}, dets
