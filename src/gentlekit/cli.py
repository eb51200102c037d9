"""Command line front end.

Exit codes: 0 success (or inconclusive comparison), 1 provable difference or
failed property suite, 2 input/validation errors, 3 internal cross-check
mismatches (which indicate a bug, never bad input).
"""

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from .brauer import brauer_cartan, brauer_classify, brauer_from_json
from .derived import (BandComplex, ar_translate, build_string_complex,
                      enumerate_perfect_classes, k0_class, root_classify,
                      root_tag)
from .errors import InternalMismatch
from .invariants import aag_invariant, compare, coxeter, euler_analysis, \
    fingerprint, ribbon_faces, FINGERPRINT_FIELDS
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
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _poly_json(p):
    return list(p.coeffs)


def _matrix_json(m):
    return None if m is None else m.to_lists()


def _euler_json(ea):
    return {
        "gramProjectives": _matrix_json(ea.gramProjectives),
        "gramSimples": _matrix_json(ea.gramSimples),
        "nabla": ea.nabla,
        "rank": ea.rank,
        "corank": ea.corank,
        "dynkinProjectives": ea.dynkinProjectives,
        "dynkinSimples": ea.dynkinSimples,
        "unitInProjectives": ea.unitInProjectives,
        "unitInSimples": ea.unitInSimples,
        "connectedInSimples": ea.connectedInSimples,
    }


def _fingerprint_json(fp):
    out = {}
    for name in FINGERPRINT_FIELDS:
        v = getattr(fp, name)
        if name == "aag":
            v = v.as_sorted_list()
        elif name == "coxeterPoly":
            v = _poly_json(v)
        elif name == "faceProfile":
            v = sorted([ln, dg, c] for (ln, dg), c in v.items())
        out[name] = v
    return out


def _analysis_payload(gq):
    ea = euler_analysis(gq)
    psi, poly = coxeter(gq)
    return {
        "eulerAnalysis": _euler_json(ea),
        "aag": aag_invariant(gq).as_sorted_list(),
        "coxeter": {"matrix": _matrix_json(psi), "poly": _poly_json(poly),
                    "polyPretty": str(poly)},
        "fingerprint": _fingerprint_json(fingerprint(gq)),
    }


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
        order = " > ".join(str(g.half_edge[h]) for h in g.chains[i])
        lines.append("  %-12s %s" % (v, order))
    lines.append("")
    lines.append("edges with reference orientation (source -> target):")
    for e in g.edges:
        tgt, src = g.edge_halves[e]
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
        sys.stdout.write(dot_export(to_ribbon(gq)))
        return 0
    if args.format == "json":
        sys.stdout.write(_dump_json(_analysis_payload(gq)))
    else:
        sys.stdout.write(_analysis_text(gq))
    return 0


def cmd_compare(args):
    f1 = fingerprint(_load_quiver(args.pathA))
    f2 = fingerprint(_load_quiver(args.pathB))
    report = compare(f1, f2)
    if args.format == "json":
        sys.stdout.write(_dump_json({"verdict": report.verdict,
                                     "differing": list(report.differing)}))
    else:
        sys.stdout.write("%s\n" % report.verdict)
        for name in report.differing:
            sys.stdout.write("  differs: %s\n" % name)
    return 1 if report.differing else 0


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
    sc = build_string_complex(gq, args.shift, w)
    cls = k0_class(sc)
    root = root_classify(gq, cls)
    tri = ar_translate(gq, args.shift, w)
    payload = {
        "complex": _complex_json(sc),
        "class": list(cls),
        "root": {"value": root.value, "tag": root.tag, "note": root.note},
        "walkClass": classify_walk(w),
        "arTriangle": {
            "start": {"m": tri.start.m, "walk": tri.start.walk.render()},
            "middle": [{"m": s.m, "walk": s.walk.render()}
                       for s in tri.middle],
            "end": {"m": tri.end.m, "walk": tri.end.walk.render()},
            "shift": tri.shift,
        },
    }
    if args.format == "json":
        sys.stdout.write(_dump_json(payload))
    else:
        sys.stdout.write("walk %s (%s)\n" % (w.render(), payload["walkClass"]))
        for t in payload["complex"]["terms"]:
            sys.stdout.write("  term: P_%s at degree %d\n"
                             % (t["projective"], t["degree"]))
        for mp in payload["complex"]["maps"]:
            sys.stdout.write("  map %d -> %d: %s%s\n"
                             % (mp["from"], mp["to"],
                                " ".join(mp["path"]) or "(identity)",
                                ", against walk order" if mp["reversed"] else ""))
        sys.stdout.write("class %r, %s (q = %d)\n"
                         % (payload["class"], root.tag, root.value))
        sys.stdout.write("triangle: (%d, %s) -> %s -> (%d, %s), shift %d\n"
                         % (args.shift, w.render(),
                            " + ".join("(%d, %s)" % (s["m"], s["walk"])
                                       for s in payload["arTriangle"]["middle"])
                            or "0",
                            tri.end.m, tri.end.walk.render(), tri.shift))
    return 0


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
    if args.format == "json":
        sys.stdout.write(_dump_json(payload))
    else:
        for r in rows:
            sys.stdout.write("%-20r q=%d %-7s from (%d, %s)\n"
                             % (tuple(r["class"]), r["q"], r["tag"],
                                r["witnessShift"], r["witnessWalk"]))
        sys.stdout.write("%d classes, positive form: %s\n"
                         % (len(rows), res.positive))
    return 0


def cmd_aag(args):
    gq = _load_quiver(args.path)
    inv = aag_invariant(gq)
    if args.format == "json":
        sys.stdout.write(_dump_json({"aag": inv.as_sorted_list()}))
    else:
        sys.stdout.write("%s\n" % inv)
    return 0


def cmd_coxeter(args):
    gq = _load_quiver(args.path)
    psi, poly = coxeter(gq)
    if args.format == "json":
        sys.stdout.write(_dump_json({"matrix": _matrix_json(psi),
                                     "poly": _poly_json(poly),
                                     "polyPretty": str(poly)}))
    else:
        for row in psi.rows:
            sys.stdout.write("  %s\n" % " ".join("%3d" % v for v in row))
        sys.stdout.write("characteristic polynomial: %s\n" % poly)
    return 0


def cmd_brauer(args):
    bg = brauer_from_json(Path(args.path).read_text())
    verdict = brauer_classify(bg)
    cb = brauer_cartan(bg)
    payload = {"cartan": cb.to_lists(), "definiteness": verdict.definiteness,
               "tag": verdict.tag, "repType": verdict.repType,
               "corank": verdict.corank}
    if args.format == "json":
        sys.stdout.write(_dump_json(payload))
    else:
        sys.stdout.write("%s, %s%s (corank %d)\n"
                         % (verdict.definiteness, verdict.tag,
                            ", representation type %s" % verdict.repType
                            if verdict.repType else "",
                            verdict.corank))
    return 0


def _check_one(gq):
    """Identity suite for one gentle quiver; raises on any failure."""
    from .exact_linalg import qform_eval

    c = euler_analysis(gq).gramProjectives
    aag_invariant(gq)
    psi, _ = coxeter(gq)
    g = to_ribbon(gq)
    if quiver_canonical_form(from_ribbon(g)) != quiver_canonical_form(gq):
        raise InternalMismatch("quiver -> graph -> quiver changed the quiver")
    for w in enumerate_reduced_walks(g, 4):
        vec = incidence_vector(w)
        val = qform_eval(c, vec)
        # open walks carry 1-roots, closed walks 0 or 2 by length parity;
        # a belt-shaped walk is still open as a walk
        if w.closed:
            expect = 0 if w.length % 2 == 0 else 2
        else:
            expect = 1
        if val != expect:
            raise InternalMismatch("q = %d on %s walk %s"
                                   % (val, classify_walk(w), w.render()))
        if classify_walk(w) == "belt":
            band_vec = k0_class(BandComplex(0, w, 1))
            if qform_eval(c, band_vec) != 0:
                raise InternalMismatch("band class of %s is not a 0-root"
                                       % w.render())
        if w.length <= 2:
            tri = ar_translate(gq, 0, w)
            if psi.apply(k0_class(tri.end)) != k0_class(tri.start):
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
            return 1
    sys.stdout.write("selftest passed: %d quivers (seed %d)\n"
                     % (args.count, seed))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(
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
        return args.run(args)
    except InternalMismatch as exc:
        sys.stderr.write("internal mismatch: %s\n" % exc)
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
