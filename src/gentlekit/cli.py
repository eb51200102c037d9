"""Command line front end.

Each cmd_* handler returns (exit code, JSON payload or None, text renderer)
and writes nothing to stdout.  main alone writes stdout: the payload under
--format json, else the renderer's text; a payload of None means the output
ignores --format.  main also turns ValueError, OSError and MemoryError into
exit 2 and InternalMismatch into exit 3, with one line on stderr and nothing
on stdout; a usage error from the parser also exits 2 with one stderr line.
Payloads take result records through _json, which gives a record (a
namedtuple) as the dict of its fields, so JSON keys are the field names.
The JSON writer, _dump_json, gives the bytes of json.dumps(payload,
indent=2, sort_keys=True) plus a newline in one pass, without the
per-token generator that the stdlib encoder falls back to under indent.

Exit codes: 0 success (or inconclusive comparison), 1 provable difference or
failed property suite, 2 input/validation errors or running out of memory,
3 internal cross-check mismatches (which indicate a bug, never bad input).
"""

import argparse
import functools
import json
import random
import sys
from collections import Counter
from pathlib import Path

from .brauer import brauer_cartan, brauer_classify, brauer_from_json
from .derived import (ar_translate, enumerate_perfect_classes, k0_class,
                      root_classify, root_tag, walk_q_value)
from .errors import InternalMismatch
from .exact_linalg import IntMatrix, IntPolynomial, qform_eval
from .invariants import aag_invariant, compare, coxeter, euler_analysis, \
    fingerprint, ribbon_faces
from .quiver import load_gentle
from .ribbon import (dot_export, from_ribbon, half_name,
                     quiver_canonical_form, random_marked_ribbon_graph,
                     ribbon_canonical_form, ribbon_from_json, to_ribbon)
from .walks import classify_walk, enumerate_reduced_walks, incidence_vector, \
    parse_walk


def _load_quiver(path):
    text = Path(path).read_text()
    if path.endswith(".rgraph.json"):
        return from_ribbon(ribbon_from_json(text))
    return load_gentle(text)


def _dump_json(data):
    """json.dumps(data, indent=2, sort_keys=True) + "\n", byte for byte,
    written in one pass into a list of parts that is joined once.

    Dict keys must be str (TypeError otherwise).  Lists and tuples are
    written alike; a list of plain ints (no bools) is joined in one go, and
    every other leaf goes through json.dumps.
    """
    parts = []
    write = parts.append

    def emit(x, pad):
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(x, dict):
            if not x:
                write("{}")
            else:
                for k, key in enumerate(sorted(x)):
                    if not isinstance(key, str):
                        raise TypeError("JSON object keys must be str, not %s"
                                        % type(key).__name__)
                    write((sep if k else "{\n" + inner) + json.dumps(key)
                          + ": ")
                    emit(x[key], inner)
                write("\n" + pad + "}")
        elif isinstance(x, (list, tuple)):
            if not x:
                write("[]")
            elif set(map(type, x)) == {int}:
                write("[\n" + inner + sep.join(map(str, x)) + "\n" + pad + "]")
            else:
                for k, v in enumerate(x):
                    write(sep if k else "[\n" + inner)
                    emit(v, inner)
                write("\n" + pad + "]")
        else:
            write(json.dumps(x))

    emit(data, "")
    write("\n")
    return "".join(parts)


def _json(x):
    """JSON data for a result object.  A matrix is its rows, a polynomial its
    coefficients, a multiset (an AAG invariant, a Counter) its sorted
    [*key, count] rows, and a record, a namedtuple, the dict of its fields
    by name."""
    if isinstance(x, IntMatrix):
        return x.to_lists()
    if isinstance(x, IntPolynomial):
        return list(x.coeffs)
    if isinstance(x, Counter):
        return sorted([*key, count] for key, count in x.items())
    if hasattr(x, "_fields"):
        return {name: _json(getattr(x, name)) for name in x._fields}
    return x


def _coxeter_json(gq):
    psi, poly = coxeter(gq)
    return {"matrix": _json(psi), "poly": _json(poly), "polyPretty": str(poly)}


def _analysis_text(gq):
    g = to_ribbon(gq)
    ea = euler_analysis(gq)
    _, poly = coxeter(gq)
    lines = []
    lines.append("quiver: %d vertices, %d arrows, %d relations"
                 % (len(gq.vertices), len(gq.arrows), len(gq.relations)))
    lines.append("")
    lines.append("graph vertices (chains, top half first):")
    for i, v in enumerate(g.vertices):
        order = " > ".join(str(abs(g.oriented_with_target(h)))
                           for h in g.chains[i])
        lines.append("  %-12s %s" % (v, order))
    lines.append("")
    lines.append("edges with reference orientation (source -> target):")
    for e in g.edges:
        tgt, src = g.t_half(e), g.s_half(e)
        lines.append("  %-4s %s -> %s   halves %s -> %s"
                     % (e, g.vertices[src[0]], g.vertices[tgt[0]],
                        half_name(g, src), half_name(g, tgt)))
    lines.append("")
    lines.append("faces:")
    for f in ribbon_faces(gq):
        n, m = f.pair
        lines.append("  %-24s length %d, closed degree %d, (n,m)=(%d,%d)%s"
                     % (f.walk.render(), f.length, f.deg_closed, n, m,
                        ", full" if f.is_full else ""))
    lines.append("")
    lines.append("nabla %d, rank %d, corank %d" % (ea.nabla, ea.rank,
                                                   ea.corank))
    lines.append("Dynkin type: %s (projectives basis), %s (simples basis)"
                 % (ea.dynkinProjectives, ea.dynkinSimples))
    lines.append("AAG invariant: %s" % aag_invariant(gq))
    lines.append("Coxeter polynomial: %s" % poly)
    return "\n".join(lines) + "\n"


def cmd_analyze(args):
    gq = _load_quiver(args.path)
    if args.dot:
        return 0, None, lambda: dot_export(to_ribbon(gq))
    payload = {
        "eulerAnalysis": _json(euler_analysis(gq)),
        "aag": _json(aag_invariant(gq)),
        "coxeter": _coxeter_json(gq),
        "fingerprint": _json(fingerprint(gq)),
    }
    return 0, payload, lambda: _analysis_text(gq)


def cmd_compare(args):
    f1 = fingerprint(_load_quiver(args.pathA))
    f2 = fingerprint(_load_quiver(args.pathB))
    report = compare(f1, f2)

    def text():
        lines = [report.verdict]
        for name in report.differing:
            lines.append("  differs: %s" % name)
        return "\n".join(lines) + "\n"
    return (1 if report.differing else 0), _json(report), text


def _complex_json(sc):
    return {
        "m": sc.m,
        "walk": sc.walk.render(),
        "terms": [{"degree": d, "projective": p} for d, p in sc.terms],
        "maps": [{"from": a, "to": b, "path": list(path), "reversed": rev}
                 for a, b, path, rev in sc.maps],
    }


def cmd_walk(args):
    gq = _load_quiver(args.path)
    g = to_ribbon(gq)
    w = parse_walk(g, args.walk)
    tri = ar_translate(gq, args.shift, w)
    cls = k0_class(tri.start)
    root = root_classify(gq, cls)
    payload = {
        "complex": _complex_json(tri.start),
        "class": list(cls),
        "root": _json(root),
        "walkClass": classify_walk(w),
        "arTriangle": {
            "start": {"m": tri.start.m, "walk": tri.start.walk.render()},
            "middle": [{"m": s.m, "walk": s.walk.render()}
                       for s in tri.middle],
            "end": {"m": tri.end.m, "walk": tri.end.walk.render()},
            "shift": tri.shift,
        },
    }

    def text():
        lines = ["walk %s (%s)" % (w.render(), payload["walkClass"])]
        for t in payload["complex"]["terms"]:
            lines.append("  term: P_%s at degree %d"
                         % (t["projective"], t["degree"]))
        for mp in payload["complex"]["maps"]:
            lines.append("  map %d -> %d: %s%s"
                         % (mp["from"], mp["to"],
                            " ".join(mp["path"]) or "(identity)",
                            ", against walk order" if mp["reversed"] else ""))
        lines.append("class %r, %s (q = %d)"
                     % (payload["class"], root.tag, root.value))
        lines.append("triangle: (%d, %s) -> %s -> (%d, %s), shift %d"
                     % (args.shift, w.render(),
                        " + ".join("(%d, %s)" % (s["m"], s["walk"])
                                   for s in payload["arTriangle"]["middle"]),
                        tri.end.m, tri.end.walk.render(), tri.shift))
        return "\n".join(lines) + "\n"
    return 0, payload, text


def cmd_roots(args):
    gq = _load_quiver(args.path)
    res = enumerate_perfect_classes(gq, max_len=args.max_len)
    rows = []
    for vec, (m, w) in sorted(res.classes.items()):
        q = res.values[vec]
        rows.append({"class": list(vec), "q": q, "tag": root_tag(q),
                     "witnessShift": m, "witnessWalk": w.render()})
    payload = {"classes": rows, "positive": res.positive,
               "valueCounts": {str(k): v
                               for k, v in sorted(res.value_counts.items())}}

    def text():
        lines = []
        for r in rows:
            lines.append("%-20r q=%d %-7s from (%d, %s)"
                         % (tuple(r["class"]), r["q"], r["tag"],
                            r["witnessShift"], r["witnessWalk"]))
        lines.append("%d classes, positive form: %s"
                     % (len(rows), res.positive))
        return "\n".join(lines) + "\n"
    return 0, payload, text


def cmd_aag(args):
    inv = aag_invariant(_load_quiver(args.path))
    return 0, {"aag": _json(inv)}, lambda: "%s\n" % inv


def cmd_coxeter(args):
    gq = _load_quiver(args.path)

    def text():
        psi, poly = coxeter(gq)
        lines = []
        for row in psi.rows:
            lines.append("  %s" % " ".join("%3d" % v for v in row))
        lines.append("characteristic polynomial: %s" % poly)
        return "\n".join(lines) + "\n"
    return 0, _coxeter_json(gq), text


def cmd_brauer(args):
    bg = brauer_from_json(Path(args.path).read_text())
    verdict = brauer_classify(bg)
    cb = brauer_cartan(bg)
    payload = {"cartan": cb.to_lists(), **_json(verdict)}

    def text():
        return ("%s, %s%s (corank %d)\n"
                % (verdict.definiteness, verdict.tag,
                   ", representation type %s" % verdict.repType
                   if verdict.repType else "",
                   verdict.corank))
    return 0, payload, text


def _check_one(gq):
    """Identity suite for one gentle quiver; raises on any failure: the
    quiver -> graph -> quiver round trip, q by the Gram matrix against
    walk_q_value's end rule on every walk of at most 4 edges, and Psi on
    the triangle of every walk of at most 2 edges.  No band check is
    needed: a belt of at most 4 edges has its core among those walks,
    closed and even with q = 0, and a band's class is a multiple of its
    core's."""
    c = euler_analysis(gq).gramProjectives
    aag_invariant(gq)
    psi, _ = coxeter(gq)
    g = to_ribbon(gq)
    if quiver_canonical_form(from_ribbon(g)) != quiver_canonical_form(gq):
        raise InternalMismatch("quiver -> graph -> quiver changed the quiver")
    for w in enumerate_reduced_walks(g, 4):
        vec = incidence_vector(w)
        val = qform_eval(c, vec)
        # the rule the class search reads q by, against the form itself
        if val != walk_q_value(w):
            raise InternalMismatch("q = %d on %s walk %s"
                                   % (val, classify_walk(w), w.render()))
        if w.length <= 2:
            tri = ar_translate(gq, 0, w)
            if psi.apply(k0_class(tri.end)) != vec:  # tri starts at (0, w)
                raise InternalMismatch("Coxeter matrix misses the translate "
                                       "of %s" % w.render())


def cmd_selftest(args):
    if args.count < 1:
        raise ValueError("--count must be at least 1, got %d" % args.count)
    seed = args.seed
    rng = random.Random(seed)
    kinds = ("any", "tree", "odd1cycle")
    for k in range(args.count):
        g = random_marked_ribbon_graph(rng, kind=kinds[k % len(kinds)])
        gq = from_ribbon(g)
        try:
            _check_one(gq)
            back = to_ribbon(gq)
            if ribbon_canonical_form(back) != ribbon_canonical_form(g):
                raise InternalMismatch("graph -> quiver -> graph changed "
                                       "the graph")
        except InternalMismatch as exc:
            sys.stderr.write("selftest failure on instance %d (seed %d): %s\n"
                             % (k, seed, exc))
            return 1, None, lambda: ""
    return 0, None, lambda: ("selftest passed: %d quivers (seed %d)\n"
                             % (args.count, seed))


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 2 with one stderr line; subparsers
    get the same class."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    p = _Parser(
        prog="gentlekit",
        description="Graph invariants of gentle bound quivers")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        return sp

    a = command("analyze", cmd_analyze, "full invariant report for one quiver")
    a.add_argument("path")
    a.add_argument("--dot", action="store_true",
                   help="emit the ribbon graph in DOT format instead")

    c = command("compare", cmd_compare,
                "compare derived invariants of two quivers")
    c.add_argument("pathA")
    c.add_argument("pathB")

    w = command("walk", cmd_walk, "string complex and triangle for one walk")
    w.add_argument("path")
    w.add_argument("--walk", required=True,
                   help="signed edge word, e.g. '-1 3 5'")
    w.add_argument("--shift", type=int, default=0)

    r = command("roots", cmd_roots, "perfect complex classes up to a length")
    r.add_argument("path")
    r.add_argument("--max-len", type=int, default=6)

    command("aag", cmd_aag, "orbit/face pair multiset").add_argument("path")
    command("coxeter", cmd_coxeter,
            "Coxeter matrix and polynomial").add_argument("path")
    command("brauer", cmd_brauer,
            "Brauer graph Cartan classification").add_argument("path")

    s = command("selftest", cmd_selftest, "randomized identity suite")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--count", type=int, default=20)

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("text", "json"), default="text")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code, payload, text = args.run(args)
        if args.format == "json" and payload is not None:
            out = _dump_json(payload)
        else:
            out = text()
    except InternalMismatch as exc:
        sys.stderr.write("internal mismatch: %s\n" % exc)
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
