"""Frozen CLI behaviour: exit code and stdout, byte for byte, for every
fixture under each subcommand in both output formats.

The expected values live in cli_golden.json next to this file.  Re-record
them only for an intended output change, and say so in CHANGES.md:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from gentlekit.cli import main

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "cli_golden.json"
FIXTURES = HERE / "fixtures"

# one walk per quiver fixture with a map against walk order, so the shifted
# cases cross a junction (tree has no such walk of length 3)
LONG_WALKS = {
    "amiot0.quiver": "1 -2 1",
    "amiot1.quiver": "1 -2 1",
    "amiot2.quiver": "1 -5 2",
    "loop.quiver": "-1 -1 -1",
    "nonpalin.quiver": "1 -2 1",
    "sixvertex.quiver": "1 -6 -4",
    "smallrow2.quiver": "1 -2 -2",
    "tree.quiver": "1 -2",
    "triangle.rgraph.json": "-1 -3 2",
    "twosided.quiver": "1 -3 1",
}


def cases():
    """Argument vectors, with fixture paths relative to the tests folder."""
    names = sorted(p.name for p in FIXTURES.iterdir())
    quivers = ["fixtures/" + n for n in names if not n.endswith(".brauer.json")]
    brauers = ["fixtures/" + n for n in names if n.endswith(".brauer.json")]
    out = []
    for fmt in ("text", "json"):
        tail = ["--format", fmt]
        for q in quivers:
            out += [["analyze", q] + tail,
                    ["analyze", q, "--dot"] + tail,
                    ["aag", q] + tail,
                    ["coxeter", q] + tail,
                    ["roots", q, "--max-len", "5"] + tail,
                    ["walk", q, "--walk", "1"] + tail,
                    ["compare", q, "fixtures/amiot1.quiver"] + tail]
            out += [["walk", q, "--walk", LONG_WALKS[q[len("fixtures/"):]],
                     "--shift", s] + tail for s in ("-1", "2")]
        out += [["brauer", b] + tail for b in brauers]
        out.append(["selftest", "--count", "30", "--seed", "3"] + tail)
    return out


def run(argv):
    """(exit code, stdout) of one in-process CLI call."""
    resolved = [str(HERE / a) if a.startswith("fixtures/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return code, out.getvalue()


def key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", cases(), ids=key)
def test_cli_output_is_unchanged(argv, golden):
    code, stdout = run(argv)
    want = golden[key(argv)]
    assert code == want["exit"]
    assert stdout == want["stdout"]


# analyze --dot and selftest print text under either format
JSON_CASES = [a for a in cases()
              if a[-1] == "json" and "--dot" not in a and a[0] != "selftest"]


@pytest.mark.parametrize("argv", JSON_CASES, ids=key)
def test_json_golden_is_the_stdlib_encoding(argv, golden):
    # ties the recorded JSON to the stdlib encoder, so a writer that drifts
    # from it cannot be re-recorded into this file unnoticed
    out = golden[key(argv)]["stdout"]
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def record():
    data = {}
    for argv in cases():
        code, stdout = run(argv)
        data[key(argv)] = {"exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("recorded %d cases in %s" % (len(data), GOLDEN.name))


if __name__ == "__main__":
    record()
