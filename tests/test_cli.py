import json
import pathlib
import random
import subprocess
import sys

import pytest

import gentlekit
from gentlekit import from_ribbon, invariants, to_ribbon
from gentlekit.cli import _dump_json, build_parser, main
from gentlekit.derived import ar_translate, k0_class
from gentlekit.ribbon import RibbonGraph
from gentlekit.walks import enumerate_reduced_walks

from conftest import FIXTURE_NAMES, FIXTURES, load_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fx(name):
    return str(FIXTURES / name)


def test_analyze_text(capsys):
    code, out, err = run_cli(capsys, "analyze", fx("amiot1.quiver"))
    assert code == 0
    assert "nabla" in out or "corank" in out
    assert "D4" in out


def test_analyze_json_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "analyze", fx("amiot1.quiver"),
                            "--format", "json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "analyze", fx("amiot1.quiver"),
                            "--format", "json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["eulerAnalysis"]["corank"] == 1
    assert data["eulerAnalysis"]["nabla"] == 0
    assert data["eulerAnalysis"]["dynkinProjectives"] == "D4"
    assert data["aag"] == [[4, 6, 1]]
    fp = data["fingerprint"]
    assert fp["numQVertices"] == 5
    assert fp["numQArrows"] == 6
    assert fp["numGVertices"] == 4
    assert fp["numGEdges"] == 5
    assert fp["detCartan"] == 1
    assert data["coxeter"]["poly"] == [1, -1, 0, 0, -1, 1]


# text that stresses string escaping: quotes, backslashes, control
# characters, non-ASCII letters and a character outside the BMP
TRICKY_TEXT = ('', 'a', '"q"', 'back\\slash', 'tab\there', 'nl\n', '\x00\x1f\x7f',
               'caf\u00e9', '\u2200x', '\U0001d11e', '</script>', ' ')


def _random_leaf(rng):
    return rng.choice((
        lambda: rng.randint(-5, 5),
        lambda: rng.choice((-1, 1)) * rng.randrange(2 ** 64, 2 ** 70),
        lambda: rng.choice((True, False, None)),
        lambda: rng.choice((0.5, -2.25, 1e300)),
        lambda: rng.choice(TRICKY_TEXT),
    ))()


def _random_payload(rng, depth):
    kind = rng.randrange(6) if depth else 5
    if kind == 0:
        return {rng.choice(TRICKY_TEXT) + str(rng.randrange(4)):
                _random_payload(rng, depth - 1) for _ in range(rng.randrange(5))}
    if kind == 1:
        seq = [_random_payload(rng, depth - 1) for _ in range(rng.randrange(5))]
        return tuple(seq) if rng.random() < 0.3 else seq
    if kind == 2:
        # int rows, some mixed with a bool, which JSON writes differently
        row = [rng.randint(-10, 10 ** rng.randrange(1, 25))
               for _ in range(rng.randrange(6))]
        if row and rng.random() < 0.3:
            row[rng.randrange(len(row))] = rng.choice((True, False))
        return tuple(row) if rng.random() < 0.3 else row
    if kind == 3:
        return [[rng.randint(-3, 3) for _ in range(3)]
                for _ in range(rng.randrange(4))]
    if kind == 4:
        return rng.choice(({}, [], (), [[]], {"": {}}))
    return _random_leaf(rng)


def test_json_writer_matches_stdlib():
    rng = random.Random(41)
    for _ in range(500):
        data = _random_payload(rng, rng.randrange(1, 6))
        assert _dump_json(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"
    for key in (1, None, 2.5, True):
        with pytest.raises(TypeError):
            _dump_json({"a": [{key: 1}]})


def test_analyze_dot(capsys):
    code, out, _ = run_cli(capsys, "analyze", fx("tree.quiver"), "--dot")
    assert code == 0
    assert out.startswith("graph")
    assert "--" in out


def test_analyze_accepts_ribbon_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", fx("triangle.rgraph.json"),
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["fingerprint"]["numQVertices"] == 3
    assert data["fingerprint"]["numGVertices"] == 3


def test_compare_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "compare", fx("amiot0.quiver"),
                           fx("amiot2.quiver"))
    assert code == 0
    assert "inconclusive" in out
    code, out, _ = run_cli(capsys, "compare", fx("amiot0.quiver"),
                           fx("amiot1.quiver"), "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "not derived equivalent"
    assert set(data["differing"]) == {"bipartite", "nabla", "corank"}


def test_walk_payload(capsys):
    code, out, _ = run_cli(capsys, "walk", fx("amiot1.quiver"),
                           "--walk", "-1 3 5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["walkClass"] == "closed-odd"
    assert data["arTriangle"]["shift"] == 1
    middles = {(s["m"], s["walk"]) for s in data["arTriangle"]["middle"]}
    assert middles == {(1, "4 -1 2 -1 3 5"), (0, "-1 3 5 -2 1 -4")}
    assert data["root"] == {
        "value": 2, "tag": "2-root",
        "note": "class of a string complex over a closed walk of odd "
                "length, when such a walk exists"}
    assert data["class"] == [1, 0, -1, 0, 1]
    assert len(data["complex"]["terms"]) == 3
    assert len(data["complex"]["maps"]) == 2


def test_walk_text(capsys):
    code, out, _ = run_cli(capsys, "walk", fx("amiot1.quiver"),
                           "--walk", "-1 3 5")
    assert code == 0
    assert "triangle:" in out
    assert "q = 2" in out
    assert "(closed-odd)" in out


@pytest.mark.parametrize("walk,message", [
    ("99", "no oriented edge 99"),
    ("", "empty walk"),
    ("x", "bad edge token 'x'")])
def test_walk_bad_edge_is_input_error(capsys, walk, message):
    code, out, err = run_cli(capsys, "walk", fx("amiot1.quiver"),
                             "--walk", walk)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("walk,message", [
    ("2 -3 3", "backtracking junction"),
    ("1 1", "edges at positions 1 and 2 do not meet")])
def test_walk_rejects_bad_junctions(capsys, walk, message):
    code, out, err = run_cli(capsys, "walk", fx("sixvertex.quiver"),
                             "--walk", walk)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_k0_classes_are_ints_at_negative_shifts(capsys):
    # a sign (-1) ** m is a float for m < 0, and the float reached the JSON
    code, out, _ = run_cli(capsys, "walk", fx("loop.quiver"), "--walk", "1",
                           "--shift", "-1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["class"] == [-1] and type(data["class"][0]) is int
    assert data["root"]["value"] == 2 and type(data["root"]["value"]) is int
    shifts = set()
    for name in FIXTURE_NAMES:
        gq = load_fixture(name)
        for w in enumerate_reduced_walks(to_ribbon(gq), 3):
            end = ar_translate(gq, 0, w).end
            shifts.add(end.m)
            assert all(type(v) is int for v in k0_class(end)), (name, w)
    assert min(shifts) < 0


def test_roots(capsys):
    code, out, _ = run_cli(capsys, "roots", fx("tree.quiver"),
                           "--max-len", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["positive"] is True
    assert data["valueCounts"] == {"1": 6}
    assert len(data["classes"]) == 6


def test_roots_bound_guard(capsys):
    for fixture, bound, message in [
            ("tree.quiver", "40", "exceeds the limit"),
            ("tree.quiver", "0", "at least 1"),
            ("amiot1.quiver", "0", "at least 1"),
            ("amiot1.quiver", "-3", "at least 1")]:
        code, _, err = run_cli(capsys, "roots", fx(fixture), "--max-len", bound)
        assert code == 2
        assert message in err


def test_aag(capsys):
    code, out, _ = run_cli(capsys, "aag", fx("twosided.quiver"))
    assert code == 0
    assert out.strip() == "{(0,2)x2, (2,0)}"
    code, out, _ = run_cli(capsys, "aag", fx("amiot0.quiver"),
                           "--format", "json")
    assert json.loads(out)["aag"] == [[4, 6, 1]]


def test_coxeter(capsys):
    code, out, _ = run_cli(capsys, "coxeter", fx("nonpalin.quiver"),
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == [[0, -1], [-1, 0]]
    assert data["poly"] == [-1, 0, 1]
    assert data["polyPretty"] == "z^2 - 1"


def test_brauer_command(capsys):
    code, out, _ = run_cli(capsys, "brauer", fx("triangle.brauer.json"),
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cartan"] == [[3, 1, 2], [1, 2, 1], [2, 1, 3]]
    assert data["definiteness"] == "positive-definite"
    assert data["tag"] == "odd-1-cycle"
    assert data["repType"] is None


_TWO_HALF_VERTICES = ('{"vertices": [{"id": "u", "halfEdges": ["a", "b"]}, '
                      '{"id": "v", "halfEdges": ["c", "d"]}], ')
IN_TWO_PAIRS = _TWO_HALF_VERTICES + '"iota": [["a", "b"], ["a", "c"]]}'
UNPAIRED = _TWO_HALF_VERTICES + '"iota": [["a", "c"]]}'
SELF_PAIRED = _TWO_HALF_VERTICES + '"iota": [["a", "a"], ["b", "c"]]}'
# the JSON half-edges that the error line must name
NAMED_HALVES = {IN_TWO_PAIRS: ["'a'"], UNPAIRED: ["'b'", "'d'"],
                SELF_PAIRED: ["'a'"]}


@pytest.mark.parametrize("command,suffix,text", [
    ("analyze", ".rgraph.json", '{"vertices": [1, 2], "iota": []}'),
    ("analyze", ".rgraph.json", '{"vertices": [{"id": "u"}], "iota": []}'),
    ("analyze", ".rgraph.json", '{"vertices": {"u": 1}, "iota": []}'),
    ("analyze", ".rgraph.json",
     '{"vertices": [{"id": "u", "halfEdges": 2}], "iota": []}'),
    ("analyze", ".rgraph.json",
     '{"vertices": [{"id": "u", "halfEdges": ["a", "b"]}], "iota": [7]}'),
    ("analyze", ".rgraph.json", '{"vertices": [], "iota": []}'),
    ("analyze", ".rgraph.json",
     '{"vertices": [{"id": "a\\nb", "halfEdges": []}], "iota": []}'),
    ("brauer", ".brauer.json", '{"vertices": [1, 2], "iota": []}'),
    ("brauer", ".brauer.json", '{"vertices": [], "iota": []}'),
    ("brauer", ".brauer.json", '{"vertices": [{"id": "u"}], "iota": []}'),
    ("brauer", ".brauer.json",
     '{"vertices": [{"id": "u", "halfEdges": ["a"], "multiplicity": true},'
     ' {"id": "v", "halfEdges": ["b"]}], "iota": [["a", "b"]]}'),
    pytest.param("analyze", ".rgraph.json", "[" * 100000,
                 id="analyze-deeply-nested"),
    pytest.param("brauer", ".brauer.json", "[" * 100000,
                 id="brauer-deeply-nested"),
    pytest.param("analyze", ".rgraph.json", IN_TWO_PAIRS,
                 id="analyze-half-in-two-pairs"),
    pytest.param("analyze", ".rgraph.json", UNPAIRED,
                 id="analyze-unpaired-halves"),
    pytest.param("analyze", ".rgraph.json", SELF_PAIRED,
                 id="analyze-half-paired-with-itself"),
    pytest.param("brauer", ".brauer.json", IN_TWO_PAIRS,
                 id="brauer-half-in-two-pairs"),
    pytest.param("brauer", ".brauer.json", UNPAIRED,
                 id="brauer-unpaired-halves"),
])
def test_malformed_json_is_input_error(capsys, tmp_path, command, suffix, text):
    path = tmp_path / ("bad" + suffix)
    path.write_text(text)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for name in NAMED_HALVES.get(text, ()):
        assert name in err


def test_cross_check_failure_exits_3(capsys, monkeypatch):
    # a fault in the thread-orbit route of the AAG invariant: one pair lost
    real = invariants._orbit_pairs
    monkeypatch.setattr(invariants, "_orbit_pairs", lambda gq: real(gq)[1:])
    code, out, err = run_cli(capsys, "aag", fx("amiot1.quiver"))
    assert code == 3
    assert out == ""
    assert err.startswith("internal mismatch: ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "selftest", "--count", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("selftest failure on instance 0 (seed 0): ")
    assert err.count("\n") == 1


def test_vertex_id_zero_is_input_error(capsys, tmp_path):
    # edge 0 would be "0" in both orientations of a walk, which no --walk
    # argument can name, so vertex id 0 is refused on input and edge id 0
    # when a ribbon graph is built
    path = tmp_path / "zero.quiver"
    path.write_text("vertices 0 1 2; arrow a: 0 -> 1; arrow b: 1 -> 2; "
                    "rel b.a;\n")
    for command in ("analyze", "roots"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "vertex id 0" in err
    with pytest.raises(ValueError,
                       match="edge id 0 is not a positive integer"):
        RibbonGraph(["u", "v", "w"], [1, 2, 1],
                        [(0, (0, 0), (1, 0)), (1, (1, 1), (2, 0))])


def test_the_algebra_k_is_refused(capsys, tmp_path):
    # one vertex and no arrow, as a quiver file and as the ribbon graph of
    # one edge between two vertices: both are refused for the missing arrow
    message = "a bound quiver needs at least one arrow"
    path = tmp_path / "a1.quiver"
    path.write_text("vertices 1;\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    with pytest.raises(ValueError, match=message):
        from_ribbon(RibbonGraph(["u", "v"], [1, 1], [(1, (0, 0), (1, 0))]))


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # exit 1 means a semantic difference, so running out of memory is
    # exit 2 with one stderr line, and no traceback
    def exhausted(gq, max_len):
        raise MemoryError
    monkeypatch.setattr(gentlekit.cli, "enumerate_perfect_classes", exhausted)
    code, out, err = run_cli(capsys, "roots", fx("tree.quiver"),
                             "--max-len", "10")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


LONG = "1" * (sys.get_int_max_str_digits() + 700)


@pytest.mark.parametrize("command,suffix,text,place", [
    ("analyze", ".quiver", "vertices 1 2%s; arrow a1: 1 -> 2;\n" % LONG,
     "(line 1, column 12)"),
    ("roots", ".quiver", "vertices 1 2;\narrow a1: 1 -> \t%s;\n" % LONG,
     "(line 2, column 17)"),
    ("analyze", ".rgraph.json",
     '{"vertices": [{"id": %s, "halfEdges": [1]}, {"id": 2, "halfEdges": [2]}],'
     ' "iota": [[1, 2]]}' % LONG, "JSON number too long"),
    ("brauer", ".brauer.json",
     '{"vertices": [{"id": "u", "halfEdges": [1], "multiplicity": %s},'
     ' {"id": "v", "halfEdges": [2]}], "iota": [[1, 2]]}' % LONG,
     "JSON number too long"),
], ids=["dsl-vertex", "dsl-arrow-target", "ribbon-json", "brauer-json"])
def test_long_number_is_input_error(capsys, tmp_path, command, suffix, text,
                                    place):
    # int() refuses more than sys.get_int_max_str_digits() digits, and its
    # own message names a Python setting instead of the place in the input
    path = tmp_path / ("long" + suffix)
    path.write_text(text)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert place in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("suffix,text,named", [
    (".quiver", "vertices 1 2 2; arrow a: 1 -> 2;\n", "duplicate vertex id 2"),
    (".rgraph.json",
     '{"vertices": [{"id": "a", "halfEdges": ["x"]},'
     ' {"id": "a", "halfEdges": ["y"]}], "iota": [["x", "y"]]}',
     "duplicate vertex id 'a'"),
], ids=["dsl", "ribbon-json"])
def test_duplicate_vertex_id_is_named(capsys, tmp_path, suffix, text, named):
    path = tmp_path / ("dup" + suffix)
    path.write_text(text)
    code, out, err = run_cli(capsys, "aag", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("text,message", [
    ("arrow a: 1 -> 2;\n", "no vertices declared"),
    ("vertices 1 2 3; arrow a: 1 -> 2; arrow b: 2 -> 3; rel a.b;\n",
     "relation a.b is not a composable pair"),
    ("vertices 1 2 3 4; arrow a: 1 -> 2; arrow b: 3 -> 4;\n",
     "quiver is not connected"),
], ids=["no-vertices", "relation-not-composable", "disconnected"])
def test_quiver_structure_error_is_input_error(capsys, tmp_path, text,
                                               message):
    path = tmp_path / "bad.quiver"
    path.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["walk", fx("amiot1.quiver"), "--walk", "-1 3 5", "--shift", "x"],
    ["walk", fx("amiot1.quiver")],
], ids=["unknown-command", "bad-int", "missing-option"])
def test_usage_error_writes_one_stderr_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/file.quiver")
    assert code == 2
    assert "error:" in err


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--count", "6", "--seed", "3")
    assert code == 0
    assert "selftest passed: 6 quivers (seed 3)" in out


@pytest.mark.parametrize("count", ["0", "-5"])
def test_selftest_rejects_count_below_one(capsys, count):
    code, out, err = run_cli(capsys, "selftest", "--count", count)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_selftest_env_seed(capsys, monkeypatch):
    # --seed (default 0) is the only knob; GENTLEKIT_SEED no longer overrides it
    monkeypatch.setenv("GENTLEKIT_SEED", "11")
    code, out, _ = run_cli(capsys, "selftest", "--count", "4")
    assert code == 0
    assert out == "selftest passed: 4 quivers (seed 0)\n"
    code, out, _ = run_cli(capsys, "selftest", "--count", "4", "--seed", "5")
    assert code == 0
    assert out == "selftest passed: 4 quivers (seed 5)\n"


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    golden = json.loads((FIXTURES.parent / "cli_golden.json").read_text())
    want = golden["aag fixtures/tree.quiver --format json"]
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "aag", fx("tree.quiver"), "--format", "json")
    assert code == want["exit"] == 0
    assert out == want["stdout"]
    # any number of calls in one process share the one parser
    assert build_parser.cache_info().misses == 1


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gentlekit.cli", "aag", fx("tree.quiver")],
        capture_output=True, text=True,
        # run the copy under test, whether installed or on pytest's pythonpath
        cwd=pathlib.Path(gentlekit.__file__).parent.parent)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "{(3,1)}"


def test_no_dataclasses_or_inspect_import():
    # both cost import time in every process, and no result record needs them
    code = ("import sys, gentlekit, gentlekit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        # run the copy under test, whether installed or on pytest's pythonpath
        cwd=pathlib.Path(gentlekit.__file__).parent.parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
