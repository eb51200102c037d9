"""The benchmark's independent checks accept real outputs and reject
tampered ones, so they are not vacuous.

    PYTHONPATH=src python3 -m pytest bench/test_checks.py
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gentlekit  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402


def quiver_input(n, rank, finite, **meta):
    return workloads._quiver_input(gentlekit, random.Random(7), "t", n, rank,
                                   finite, **meta)


@pytest.fixture(scope="module", params=[True, False], ids=["finite", "infinite"])
def analyzed(request, tmp_path_factory):
    wl = workloads.AnalyzeLadder()
    inp = quiver_input(10, 2, request.param, newline=False)
    workdir = str(tmp_path_factory.mktemp("analyze"))
    wl.write([inp], workdir)
    [path] = wl.load([inp], workdir)
    rc, out, err = wl.op(path)
    assert rc == 0, err
    return inp, json.loads(out)


def run_analyze_check(inp, data):
    checks.check_analyze(json.dumps(data), inp.text, inp.meta["nv"],
                         inp.meta["ends"])


def test_analyze_output_passes(analyzed):
    run_analyze_check(*analyzed)


def test_flipped_coxeter_coefficient_is_rejected(analyzed):
    inp, data = analyzed
    poly = data["coxeter"]["poly"]
    k = next(i for i, c in enumerate(poly[:-1]) if c)
    poly[k] = -poly[k]
    with pytest.raises(checks.CheckFailed):
        run_analyze_check(inp, data)
    poly[k] = -poly[k]


def test_changed_gram_entry_is_rejected(analyzed):
    inp, data = analyzed
    gram = data["eulerAnalysis"]["gramProjectives"]
    gram[0][1] += 1
    with pytest.raises(checks.CheckFailed):
        run_analyze_check(inp, data)
    gram[0][1] -= 1


def test_newline_form_is_the_known_failure(tmp_path):
    wl = workloads.AnalyzeLadder()
    inp = quiver_input(8, 1, True, newline=True)
    inp.text = workloads.gen.newline_form(inp.text)
    wl.write([inp], str(tmp_path))
    [path] = wl.load([inp], str(tmp_path))
    reason = wl.failure(wl.op(path))
    if reason is not None:          # the parser may accept it one day
        assert wl.known_failure(inp, reason), reason


@pytest.fixture(scope="module")
def walk_report():
    wl = workloads.WalkClasses()
    inp = quiver_input(8, 2, True, positive=False)
    [gq] = wl.load([inp], None)
    return inp, wl.op(gq)


def test_walk_report_passes(walk_report):
    inp, report = walk_report
    checks.check_walk_report(report, inp.text, inp.meta["nv"], inp.meta["ends"],
                             False)


def test_wrong_class_value_is_rejected(walk_report):
    inp, report = walk_report
    classes = list(report["classes"])
    vec, val = classes[-1]
    classes[-1] = (vec, (val + 1) % 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_walk_report(dict(report, classes=classes), inp.text,
                                 inp.meta["nv"], inp.meta["ends"], False)


def test_wrong_triangle_is_rejected(walk_report):
    inp, report = walk_report
    (start, end), *rest = report["triangles"]
    tampered = [(start, tuple(-x for x in end))] + rest
    with pytest.raises(checks.CheckFailed):
        checks.check_walk_report(dict(report, triangles=tampered), inp.text,
                                 inp.meta["nv"], inp.meta["ends"], False)


def test_brauer_outputs_pass_and_swapped_verdicts_are_rejected():
    wl = workloads.BrauerFamily()
    inputs = wl.make_inputs(3)[:8]
    swap = {"positive-definite": "semidefinite-singular",
            "semidefinite-singular": "positive-definite"}
    seen = set()
    for text in wl.load(inputs, None):
        cartan, definiteness, tag, rep_type, corank = wl.op(text)
        checks.check_brauer((cartan, definiteness, tag, rep_type, corank), text)
        seen.add(definiteness)
        with pytest.raises(checks.CheckFailed):
            checks.check_brauer((cartan, swap[definiteness], tag, rep_type,
                                 corank), text)
    assert seen == set(swap)
