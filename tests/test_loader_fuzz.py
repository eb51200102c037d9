"""Fuzz of the DSL and JSON loaders through the CLI.

Each example mutates one fixture, writes it to a file and runs analyze,
roots, walk or brauer on it through cli.main.  Whatever the input, the
command must return 0, or 2 with exactly one "error: " line on stderr, and
no exception may escape.  Hypothesis runs derandomized and without its
example database, so every run tries the same inputs.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gentlekit.cli import main

from conftest import FIXTURE_NAMES, FIXTURES, fixture_text

QUIVER_TEXTS = tuple(fixture_text(name) for name in FIXTURE_NAMES)
JSON_FIXTURES = ("triangle.rgraph.json", "triangle.brauer.json",
                 "oneedge.brauer.json")
JSON_DOCS = tuple(((FIXTURES / name).read_text(), name.split(".", 1)[1])
                  for name in JSON_FIXTURES)

# pieces of the DSL, long runs of its characters, and characters it has no
# use for
DSL_PIECES = ("vertices", "arrow", "rel", ";", "\n", "\r\n", ":", "->", ".",
              " ", "\t", "#", "0", "1", "2", "5", "77", "a1", "b2", "x", "-",
              "é", "\x00", "1" * 3000, "a" * 3000, " " * 3000)
# pieces of the JSON text, so that some mutants stop being JSON
JSON_PIECES = ("{", "}", "[", "]", ",", ":", '"', "null", "true", "-1", "1.5",
               '"u:0"', '"id"', " ", "\n")
# values a mutated JSON document may hold where the fixture had another
JSON_VALUES = (None, True, False, 0, 1, 2, -1, 1.5, "", "u", "u:0", "v:1",
               "a\nb", [], {}, ["u:0"], ["u:0", "u:0"], ["u:0", "v:1", "w:0"],
               {"id": "u"}, {"id": "z", "halfEdges": ["z:0"]},
               {"id": "a\nb", "halfEdges": []})
WALKS = ("1", "-1", "1 2", "2 -1", "-1 3 5", "1 1", "0", "9", "x", "")
COMMANDS = ("analyze", "roots", "walk", "brauer")

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=100)


@st.composite
def mutated_text(draw, texts, pieces):
    """One of texts after one to four deletions, insertions, replacements
    or duplications of a short span."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        kind = draw(st.sampled_from(("delete", "insert", "replace", "repeat")))
        if kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "insert":
            text = text[:i] + draw(st.sampled_from(pieces)) + text[i:]
        elif kind == "replace":
            text = text[:i] + draw(st.sampled_from(pieces)) + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def _paths(doc, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _paths(value, path + (k,))


@st.composite
def mutated_document(draw):
    """A JSON fixture with one to three values replaced, removed or
    repeated, serialized again."""
    text, suffix = draw(st.sampled_from(JSON_DOCS))
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = copy.deepcopy(draw(st.sampled_from(JSON_VALUES)))
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        kind = draw(st.sampled_from(("replace", "remove", "repeat")))
        if kind == "replace":
            parent[key] = value
        elif kind == "remove":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key + "x"] = value
    return json.dumps(doc), suffix


def _run(tmp_dir, suffix, text, command, walk):
    path = tmp_dir / ("input." + suffix)
    path.write_text(text)
    argv = [command, str(path)]
    if command == "roots":
        argv += ["--max-len", "3"]
    elif command == "walk":
        argv.append("--walk=" + walk)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2), (command, text, code, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (text, err)
        assert out.getvalue() == "", text
    else:
        assert err == "", (text, err)


@FUZZ
@given(text=mutated_text(QUIVER_TEXTS, DSL_PIECES),
       command=st.sampled_from(COMMANDS), walk=st.sampled_from(WALKS))
def test_mutated_dsl(tmp_path_factory, text, command, walk):
    _run(tmp_path_factory.getbasetemp(), "quiver", text, command, walk)


@FUZZ
@given(doc=mutated_document(), command=st.sampled_from(COMMANDS),
       walk=st.sampled_from(WALKS))
def test_mutated_json_document(tmp_path_factory, doc, command, walk):
    text, suffix = doc
    _run(tmp_path_factory.getbasetemp(), suffix, text, command, walk)


@FUZZ
@given(text=mutated_text(tuple(t for t, _ in JSON_DOCS), JSON_PIECES),
       suffix=st.sampled_from(("rgraph.json", "brauer.json")),
       command=st.sampled_from(COMMANDS), walk=st.sampled_from(WALKS))
def test_mutated_json_text(tmp_path_factory, text, suffix, command, walk):
    _run(tmp_path_factory.getbasetemp(), suffix, text, command, walk)
