import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentlekit import (
    cartan_matrix,
    from_ribbon,
    load_gentle,
    random_marked_ribbon_graph,
    string_functions,
)
from gentlekit.quiver import (
    GentlenessViolation,
    NotAdmissible,
    QuiverStructureError,
    QuiverSyntaxError,
    StringFunctionPair,
    cycles,
    parse_quiver,
    render_quiver,
)
from gentlekit.ribbon import quiver_canonical_form

from conftest import FIXTURE_NAMES, fixture_text, load_fixture


def test_parse_basics():
    gq = load_fixture("smallrow2")
    b = gq.base
    assert b.vertices == (1, 2)
    assert [(a.name, a.source, a.target) for a in b.arrows] == [
        ("a1", 1, 2), ("a2", 2, 1)]
    assert b.relations == frozenset({("a2", "a1")})
    assert b.out_arrows[1] == ["a1"]
    assert b.in_arrows[1] == ["a2"]


def test_parse_errors():
    with pytest.raises(QuiverSyntaxError):
        load_gentle("nonsense")
    with pytest.raises(QuiverSyntaxError):
        load_gentle("vertices 1 2")  # missing semicolon
    with pytest.raises(QuiverStructureError):
        load_gentle("vertices 1 1;")
    with pytest.raises(QuiverStructureError):
        load_gentle("vertices 1 2;\narrow a1: 1 -> 3;")
    with pytest.raises(QuiverStructureError):
        load_gentle("vertices 1 2;\narrow a1: 1 -> 2;\narrow a1: 2 -> 1;")
    with pytest.raises(QuiverStructureError):
        load_gentle("vertices 1 2;\narrow a1: 1 -> 2;\nrel b.a1;")


def test_readme_newline_example():
    q = parse_quiver("vertices 1 2 3\n"
                     "arrow a1: 2 -> 3\n"
                     "arrow a2: 1 -> 2\n"
                     "rel a1.a2\n")
    assert q == parse_quiver("vertices 1 2 3; arrow a1: 2 -> 3;\n"
                             "arrow a2: 1 -> 2; rel a1.a2;")
    # blank and comment-only lines between statements are skipped
    assert q == parse_quiver("vertices 1 2 3  # three\n\n# arrows\n"
                             "arrow a1: 2 -> 3;\r\narrow a2: 1 -> 2\n"
                             "rel a1.a2;\n")
    with pytest.raises(QuiverSyntaxError, match="line break"):
        parse_quiver("vertices 1 2 3\narrow a1: 2 ->\n3\n")


def newline_form(text):
    return "".join(line.rstrip().rstrip(";") + "\n"
                   for line in text.splitlines())


def test_newline_form_parses_the_same():
    for name in FIXTURE_NAMES:
        text = fixture_text(name)
        assert ";" not in newline_form(text), name
        assert parse_quiver(newline_form(text)) == parse_quiver(text), name


def _statements(q):
    """The tokens of each statement of a DSL text for q."""
    yield ["vertices"] + [str(v) for v in q.vertices]
    for a in q.arrows:
        yield ["arrow", a.name, ":", str(a.source), "->", str(a.target)]
    for first, second in sorted(q.relations):
        yield ["rel", first, ".", second]


SPACE = ("", " ", "\t", " \t  ")
GAP = (" ", "\t", "  \t")
NEWLINE = ("\n", "\r\n")
COMMENT = ("", " # note", "\t#; rel a1.a2", "#")
EXTRA_LINE = ("", "  ", "# comment", " \t# x;")


def _relayout(q, rng):
    """A DSL text for q in a random layout: tokens touch or are parted by
    spaces and tabs, and a statement ends at ';' on the same line, or at a
    line break with or without ';' before it and a comment, blank lines and
    comment lines after it."""
    text = rng.choice(SPACE)
    for toks in _statements(q):
        text += toks[0]
        for prev, tok in zip(toks, toks[1:]):
            # two words or numbers read as one unless whitespace parts them
            touch = not (prev[-1].isalnum() and tok[0].isalnum())
            text += rng.choice(SPACE if touch else GAP) + tok
        text += rng.choice(SPACE)
        if rng.random() < 0.5:
            text += ";" + rng.choice(SPACE)
            continue
        text += rng.choice(("", ";")) + rng.choice(COMMENT)
        text += rng.choice(NEWLINE)
        for _ in range(rng.randrange(3)):
            text += rng.choice(EXTRA_LINE) + rng.choice(NEWLINE)
        text += rng.choice(SPACE)
    return text


def test_relayout_parses_the_same():
    rng = random.Random(17)
    for name in FIXTURE_NAMES:
        q = parse_quiver(fixture_text(name))
        for _ in range(40):
            text = _relayout(q, rng)
            assert parse_quiver(text) == q, text


@pytest.mark.parametrize("text, message", [
    ("vertices 1 2;;\n",
     "expected 'vertices', 'arrow' or 'rel', found '' (line 1, column 14)"),
    ("vertices 1 2\n  arrow a1: 1 ->\n2\n",
     "expected 'arrow NAME: SOURCE -> TARGET' then ';' or a line break, "
     "found 'arrow a1: 1 ->' (line 2, column 3)"),
    ("vertices 1 2;\narrow a1: 1 -> 2;  rel a1.a1",
     "'rel a1.a1' needs ';' or a line break after it (line 2, column 20)"),
    ("vertices 1 2\nedge a1: 1 -> 2\n",
     "expected 'vertices', 'arrow' or 'rel', found 'edge a1: 1 -> 2' "
     "(line 2, column 1)"),
    ("# ids\n\tvertices ;\n",
     "expected 'vertices ID ID ...' then ';' or a line break, "
     "found 'vertices' (line 2, column 2)"),
    ("vertices 1 2 3; arrow a1: 1 -> 2 3\n",
     "expected 'arrow NAME: SOURCE -> TARGET' then ';' or a line break, "
     "found 'arrow a1: 1 -> 2 3' (line 1, column 17)"),
])
def test_rejected_statement_is_quoted_with_its_place(text, message):
    with pytest.raises(QuiverSyntaxError) as info:
        parse_quiver(text)
    assert str(info.value) == message


def test_overlong_ids_are_placed_and_long_names_kept():
    # only ids go through int(), which refuses more digits than its limit
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    for text, place in [
            ("vertices 1 %s 3;" % long, (1, 12)),
            ("vertices" + "٣" * (limit + 1) + ";", (1, 9)),
            ("vertices 1 2;\n arrow a1:%s->2;" % long, (2, 11)),
            ("vertices 1 2;\narrow a1: 1 -> %s\n" % long, (2, 16))]:
        with pytest.raises(QuiverSyntaxError) as info:
            parse_quiver(text)
        assert str(info.value) == ("id of more than %d digits (line %d, "
                                   "column %d)" % ((limit,) + place))
    name = "a" + long
    q = parse_quiver("vertices 1; arrow %s: 1 -> 1; rel %s.%s;"
                     % (name, name, name))
    assert q.arrows[0].name == name


@pytest.mark.parametrize("stmt", [
    "vertices " + "1" * 10 ** 5 + " x",
    "vertices " + "1 " * (10 ** 5 // 2) + "x",
    "arrow " + "a" * 10 ** 5,
    "arrow a: " + "1" * 10 ** 5 + " ->",
    "arrow" + " " * 10 ** 5 + "a:",
    "rel " + "a" * 10 ** 5 + ".",
    "rel a." + "b" * 10 ** 5 + " c",
    "vertices " + " ".join(str(v) for v in range(1, 20000)),
])
def test_long_statements_take_linear_time(stmt):
    # regexes with nested quantifiers backtrack exponentially on these
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_quiver(stmt + ";\n")
    assert time.perf_counter() - start < 1


def test_gentleness_violations():
    with pytest.raises(GentlenessViolation, match="condition a"):
        load_gentle("vertices 1 2;\narrow a1: 1 -> 2;\narrow a2: 1 -> 2;\n"
                    "arrow a3: 1 -> 2;")
    with pytest.raises(GentlenessViolation, match="condition b"):
        load_gentle("vertices 1 2 3 4;\narrow a1: 1 -> 4;\narrow b1: 2 -> 4;\n"
                    "arrow c1: 3 -> 4;")
    with pytest.raises(GentlenessViolation, match="arrow c1 .*condition c"):
        load_gentle("vertices 1 2;\narrow a1: 1 -> 2;\narrow b1: 1 -> 2;\n"
                    "arrow c1: 2 -> 1;\nrel c1.a1; rel c1.b1;")
    with pytest.raises(GentlenessViolation, match="arrow c1 .*condition d"):
        load_gentle("vertices 1 2 3;\narrow a1: 1 -> 2;\narrow b1: 1 -> 2;\n"
                    "arrow c1: 2 -> 3;\nrel c1.a1; rel c1.b1;")
    # a loop with no relation generates arbitrarily long paths
    with pytest.raises(NotAdmissible):
        load_gentle("vertices 1;\narrow a1: 1 -> 1;")


def test_thread_structure_frozen():
    gq = load_fixture("amiot1")
    assert sorted(t.arrows for t in gq.permitted) == [
        (), ("a1", "a2"), ("b1", "b2", "b3"), ("g1",)]
    assert sorted(t.arrows for t in gq.forbidden) == [
        (), ("a1", "b2"), ("b1", "a2"), ("b3", "g1")]
    assert gq.full_cycles == ()
    assert gq.global_dimension_finite

    gq = load_fixture("sixvertex")
    assert sorted(t.arrows for t in gq.permitted) == [
        ("a1", "a2", "a3"), ("b1", "b2", "b3"), ("d1",), ("g1",)]
    assert ("a2", "b2", "d1", "a1", "b1", "a3") in [t.arrows for t in gq.forbidden]

    gq = load_fixture("twosided")
    assert gq.full_cycles == (("a1", "b2"), ("a2", "b1"))
    assert not gq.global_dimension_finite

    gq = load_fixture("loop")
    assert gq.full_cycles == (("a1",),)


def test_thread_counts():
    # both thread families have 2|Q0| - |Q1| members, trivial ones included
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        expected = 2 * len(gq.vertices) - len(gq.arrows)
        assert len(gq.permitted) == expected, name
        assert len(gq.forbidden) == expected, name
        # every arrow sits in exactly one permitted thread; on the forbidden
        # side the full cycles carry the remaining arrows
        all_names = sorted(a.name for a in gq.arrows)
        seen_p = [a for t in gq.permitted for a in t.arrows]
        assert sorted(seen_p) == all_names, name
        seen_f = [a for t in gq.forbidden for a in t.arrows]
        seen_f += [a for cyc in gq.full_cycles for a in cyc]
        assert sorted(seen_f) == all_names, name


def test_thread_positions_and_halves():
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        forbidden_pos = {aname: (th.index, t) for th in gq.forbidden
                         for t, aname in enumerate(th.arrows, start=1)}
        for pos_map, threads in ((gq.permitted_pos, gq.permitted),
                                 (forbidden_pos, gq.forbidden)):
            for aname, (ti, t) in pos_map.items():
                assert threads[ti].arrows[t - 1] == aname, name
        for v, halves in gq.halves_at.items():
            assert len(halves) == 2, name
            assert halves == tuple(sorted(halves)), name


def test_thread_ends_at_each_vertex(random_pool):
    # permitted and forbidden threads alike end at v 2 - out(v) times and
    # start there 2 - in(v) times; relation cycles have no end.  Two ends
    # meet only at a sink (two starts only at a source), where both kinds
    # carry the same two distinct end arrows, a trivial thread's None
    # counting as one.  The orbit route pairs thread ends by this fact.
    quivers = [load_fixture(name) for name in FIXTURE_NAMES]
    quivers += [gq for _, gq in random_pool]
    infinite = 0
    for gq in quivers:
        q = gq.base
        infinite += not gq.global_dimension_finite
        for v in q.vertices:
            for end, arrow, want in (
                    ("target", "terminating_arrow", 2 - len(q.out_arrows[v])),
                    ("source", "initial_arrow", 2 - len(q.in_arrows[v]))):
                arrows = [[getattr(th, arrow) for th in threads
                           if getattr(th, end) == v]
                          for threads in (gq.permitted, gq.forbidden)]
                for a in arrows:
                    assert len(a) == want and len(set(a)) == want, (q, v)
                if want == 2:
                    assert set(arrows[0]) == set(arrows[1]), (q, v)
    assert infinite >= 50


def test_cycles_of_successor_maps():
    # a permutation: each cycle starts at its first item in items order
    perm = {1: 3, 2: 5, 3: 4, 4: 1, 5: 2}
    assert cycles([5, 1, 2, 3, 4], perm.__getitem__) == [(5, 2), (1, 3, 4)]
    assert cycles([1, 2, 3, 4, 5], perm.__getitem__) == [(1, 3, 4), (2, 5)]
    # a fixed point is a cycle of length one
    assert cycles(["a", "b"], {"a": "a", "b": "b"}.__getitem__) == [
        ("a",), ("b",)]
    assert cycles([], perm.__getitem__) == []
    # not a permutation: 1 -> 2 -> 3 -> 2; following stops at the first
    # item already seen instead of looping
    succ = {1: 2, 2: 3, 3: 2}
    assert cycles([1, 2, 3], succ.__getitem__) == [(1, 2, 3)]
    assert cycles([3, 1], succ.__getitem__) == [(3, 2), (1,)]


def _path_count_oracle(b, max_len=24):
    """Counts relation-free paths by direct extension, per (source, target)."""
    counts = {(v, w): 0 for v in b.vertices for w in b.vertices}
    for v in b.vertices:
        counts[(v, v)] += 1
    frontier = [(a.source, a.target, a.name) for a in b.arrows]
    length = 1
    while frontier:
        assert length <= max_len, "path explosion, algebra not finite dimensional"
        nxt = []
        for src, tgt, last in frontier:
            counts[(src, tgt)] += 1
            for y in b.out_arrows[tgt]:
                if (y, last) not in b.relations:
                    nxt.append((src, b.arrow_by_name[y].target, y))
        frontier = nxt
        length += 1
    return counts


def test_cartan_frozen_and_oracle():
    expected = {
        "loop": [[2]],
        "tree": [[1, 0], [1, 1]],
        "smallrow2": [[1, 1], [1, 2]],
        "nonpalin": [[1, 1], [1, 1]],
        "twosided": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        "amiot1": [[1, 0, 1, 1, 1], [2, 1, 1, 1, 1], [0, 0, 1, 0, 0],
                   [0, 0, 0, 1, 1], [0, 0, 1, 0, 1]],
        "sixvertex": [[1, 0, 1, 1, 1, 0], [2, 1, 1, 1, 1, 0],
                      [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1],
                      [0, 0, 1, 0, 1, 0], [1, 1, 1, 0, 0, 1]],
    }
    for name, want in expected.items():
        gq = load_fixture(name)
        c = cartan_matrix(gq)
        assert c.to_lists() == want, name
        # entry [i][j] counts paths from vertex j to vertex i
        oracle = _path_count_oracle(gq.base)
        idx = {v: i for i, v in enumerate(gq.vertices)}
        for (src, tgt), k in oracle.items():
            assert c.to_lists()[idx[tgt]][idx[src]] == k, (name, src, tgt)


def test_cartan_oracle_on_random_quivers():
    rng = random.Random(99)
    for _ in range(30):
        gq = from_ribbon(random_marked_ribbon_graph(rng, kind="any"))
        if not gq.global_dimension_finite:
            continue
        c = cartan_matrix(gq).to_lists()
        oracle = _path_count_oracle(gq.base)
        idx = {v: i for i, v in enumerate(gq.vertices)}
        for (src, tgt), k in oracle.items():
            assert c[idx[tgt]][idx[src]] == k


def _count_pairs_bruteforce(b):
    """Backtracking count of all valid sign-function pairs on the arrows."""
    arrows = list(b.arrows)
    S = {}
    T = {}

    def consistent(k):
        x = arrows[k]
        for j in range(k):
            y = arrows[j]
            if x.source == y.source and S[x.name] == S[y.name]:
                return False
            if x.target == y.target and T[x.name] == T[y.name]:
                return False
        for j in range(k + 1):
            y = arrows[j]
            if y.source == x.target:
                want = (y.name, x.name) in b.relations
                if want != (T[x.name] == S[y.name]):
                    return False
            if j < k and x.source == y.target:
                want = (x.name, y.name) in b.relations
                if want != (T[y.name] == S[x.name]):
                    return False
        return True

    total = [0]

    def rec(k):
        if k == len(arrows):
            total[0] += 1
            return
        x = arrows[k]
        for s in (1, -1):
            for t in (1, -1):
                S[x.name] = s
                T[x.name] = t
                if consistent(k):
                    rec(k + 1)
        S.pop(x.name)
        T.pop(x.name)

    rec(0)
    return total[0]


def test_string_function_count_exhaustive():
    import itertools
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        b = gq.base
        built = set()
        for bits in itertools.product((1, -1), repeat=len(b.vertices)):
            pair = string_functions(gq, dict(zip(b.vertices, bits)))
            assert pair.check(b), name
            built.add(pair.as_tuple(b))
        assert len(built) == 2 ** len(b.vertices), name
        assert _count_pairs_bruteforce(b) == 2 ** len(b.vertices), name


def test_string_function_pair_check_rejects():
    gq = load_fixture("smallrow2")
    b = gq.base
    good = string_functions(gq, {1: 1, 2: 1})
    assert good.check(b)
    bad = StringFunctionPair(dict(good.S), dict(good.T))
    bad.T["a1"] = -bad.T["a1"]
    assert not bad.check(b)


def test_render_round_trip():
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        again = load_gentle(render_quiver(gq.base))
        assert quiver_canonical_form(again) == quiver_canonical_form(gq), name


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.sampled_from(
    ["any", "tree", "odd1cycle"]))
def test_random_quivers_are_gentle(seed, kind):
    rng = random.Random(seed)
    gq = from_ribbon(random_marked_ribbon_graph(rng, kind=kind))
    assert len(gq.permitted) == 2 * len(gq.vertices) - len(gq.arrows)
    assert gq.global_dimension_finite == (len(gq.full_cycles) == 0)
    # parse what we render and land on the same algebra
    again = load_gentle(render_quiver(gq.base))
    assert quiver_canonical_form(again) == quiver_canonical_form(gq)
