"""Checks of gentlekit's outputs against computations made apart from it.

Nothing here imports gentlekit.  The Cartan matrix is recounted from the
quiver text (paths of arrows avoiding the relations), ranks use Fraction
elimination, determinants Bareiss elimination, and graph facts come from
the generator's own edge list.  Each check raises CheckFailed naming the
identity that broke.
"""

import json
from collections import Counter
from fractions import Fraction


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


# --- quiver text ------------------------------------------------------------


def parse_quiver_text(text):
    """(vertices, arrows, relations) from the DSL; statements end with ';'
    or a newline.  relations holds (a, b) meaning "b then a" is zero."""
    vertices, arrows, relations = [], [], set()
    for line in text.splitlines():
        for stmt in line.split("#", 1)[0].split(";"):
            words = stmt.replace(":", " ").replace("->", " ").split()
            if not words:
                continue
            if words[0] == "vertices":
                vertices += [int(w) for w in words[1:]]
            elif words[0] == "arrow":
                arrows.append((words[1], int(words[2]), int(words[3])))
            elif words[0] == "rel":
                a, b = words[1].split(".")
                relations.add((a, b))
            else:
                raise CheckFailed("unreadable quiver statement %r" % stmt)
    return vertices, arrows, relations


def path_cartan(vertices, arrows, relations):
    """C[j][i] = number of nonzero paths from vertex i to vertex j."""
    idx = {v: k for k, v in enumerate(vertices)}
    out = {v: [] for v in vertices}
    for name, src, tgt in arrows:
        out[src].append((name, tgt))
    n = len(vertices)
    c = [[0] * n for _ in range(n)]
    cap = n * len(arrows) + 1
    for v in vertices:
        stack = [(v, None, 0)]
        while stack:
            at, last, length = stack.pop()
            expect(length <= cap, "quiver has an unbounded path")
            c[idx[at]][idx[v]] += 1
            for name, tgt in out[at]:
                if last is None or (name, last) not in relations:
                    stack.append((tgt, name, length + 1))
    return c


# --- exact linear algebra -----------------------------------------------------


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(a, x):
    return [sum(p * q for p, q in zip(row, x)) for row in a]


def add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def rank(a):
    """Rank by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in a]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def det(a):
    """Determinant by Bareiss fraction-free elimination with pivoting."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        mk, pk = m[k], m[k][k]
        for i in range(k + 1, n):
            mi, f = m[i], m[i][k]
            for j in range(k + 1, n):
                mi[j] = (pk * mi[j] - f * mk[j]) // prev
        prev = pk
    return sign * m[n - 1][n - 1] if n else 1


def inverse(a):
    """Rational inverse by Gauss-Jordan elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        expect(piv is not None, "Cartan matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


def leading_minors_positive(a):
    return all(det([row[:k] for row in a[:k]]) > 0 for k in range(1, len(a) + 1))


# --- integer polynomials, ascending coefficients -------------------------------


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_div_z_minus_1(p):
    """Exact division by (z - 1), by synthetic division."""
    quot = [0] * (len(p) - 1)
    acc = 0
    for k in range(len(p) - 1, 0, -1):
        acc = p[k] + acc
        quot[k - 1] = acc
    expect(p[0] + acc == 0, "face product is not divisible by (z - 1)")
    return quot


def poly_eval(p, z):
    v = 0
    for c in reversed(p):
        v = v * z + c
    return v


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def face_product(aag, num_arrows, num_vertices):
    """Coxeter polynomial from the (n, m, count) pairs: the product of
    (z^n - (-1)^(n+m))^count over pairs with n > 0, times
    (z - 1)^(arrows - vertices)."""
    prod = [1]
    for n, m, cnt in aag:
        if n == 0:
            continue
        factor = [-((-1) ** (n + m))] + [0] * (n - 1) + [1]
        for _ in range(cnt):
            prod = poly_mul(prod, factor)
    e = num_arrows - num_vertices
    for _ in range(max(e, 0)):
        prod = poly_mul(prod, [-1, 1])
    for _ in range(max(-e, 0)):
        prod = poly_div_z_minus_1(prod)
    return trim(prod)


# --- graph facts from the generator's edge list --------------------------------


def is_bipartite(nv, ends):
    color = {0: 0}
    adj = {i: [] for i in range(nv)}
    for u, v in ends:
        if u == v:
            return False
        adj[u].append(v)
        adj[v].append(u)
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                return False
    return len(color) == nv


def unique_cycle_length(nv, ends):
    """Edge count left after pruning leaves of a connected one-cycle graph."""
    deg = [0] * nv
    for u, v in ends:
        deg[u] += 1
        deg[v] += 1
    alive = list(ends)
    pruned = True
    while pruned:
        pruned = False
        for e in list(alive):
            u, v = e
            if u != v and (deg[u] == 1 or deg[v] == 1):
                alive.remove(e)
                deg[u] -= 1
                deg[v] -= 1
                pruned = True
    return len(alive)


# --- analyze ---------------------------------------------------------------


def check_analyze(output, quiver_text, nv, ends):
    """Check `gentlekit analyze --format json` output for one quiver whose
    marked ribbon graph has nv vertices and the given edge list."""
    data = json.loads(output)
    vertices, arrows, relations = parse_quiver_text(quiver_text)
    n = len(vertices)
    c = path_cartan(vertices, arrows, relations)
    ct = transpose(c)
    gram = add(c, ct)
    ea = data["eulerAnalysis"]
    expect(ea["gramProjectives"] == gram, "gramProjectives != C + C^T")
    nabla = 1 if is_bipartite(nv, ends) else 0
    expect(ea["nabla"] == nabla, "nabla != bipartiteness of the ribbon graph")
    expect(ea["rank"] == rank(gram), "rank != rank of C + C^T")
    expect(ea["corank"] == len(arrows) - n + nabla,
           "corank != arrows - vertices + nabla")
    fp = data["fingerprint"]
    expect(fp["detCartan"] == det(c), "detCartan != det C")
    expect((fp["numQVertices"], fp["numQArrows"], fp["numGVertices"],
            fp["numGEdges"]) == (n, len(arrows), nv, len(ends)),
           "fingerprint sizes differ from the input")

    psi = data["coxeter"]["matrix"]
    poly = data["coxeter"]["poly"]
    expect(len(poly) == n + 1 and poly[-1] == 1,
           "Coxeter polynomial is not monic of degree %d" % n)
    for z in range(n + 1):
        zi_psi = [[(z if i == j else 0) - psi[i][j] for j in range(n)]
                  for i in range(n)]
        expect(det(zi_psi) == poly_eval(poly, z),
               "det(zI - Psi) != poly(z) at z = %d" % z)
    if ea["gramSimples"] is not None:
        expect(matmul(c, psi) == [[-x for x in row] for row in ct],
               "C * Psi != -C^T")

    aag = data["aag"]
    expect(sum(nn * cnt for nn, _, cnt in aag) == nv,
           "sum of n * count != ribbon graph vertices")
    expect(sum(mm * cnt for _, mm, cnt in aag) == len(arrows),
           "sum of m * count != arrows")
    expect(face_product(aag, len(arrows), n) == poly,
           "Coxeter polynomial != face product of the AAG pairs")
    expect(fp["coxeterPoly"] == poly and fp["aag"] == aag,
           "fingerprint disagrees with the report it summarises")


# --- walk classes ---------------------------------------------------------------


def check_walk_report(report, quiver_text, nv, ends, positive_shape):
    """Check a walk-classes report: classes with their root_classify values,
    the value counts, the positivity flag and the triangle class pairs.
    positive_shape marks inputs whose ribbon graph is a tree or has one odd
    cycle, where the walk bound reaches 2n + 2."""
    vertices, arrows, relations = parse_quiver_text(quiver_text)
    n = len(vertices)
    c = path_cartan(vertices, arrows, relations)
    ct = transpose(c)
    gram = add(c, ct)

    def q(x):
        s = sum(a * b for a, b in zip(x, matvec(gram, x)))
        expect(s % 2 == 0, "x^T (C + C^T) x is odd at %r" % (x,))
        return s // 2

    values = {}
    for vec, val in report["classes"]:
        expect(val == q(vec), "class %r has value %r, expected %d"
               % (vec, val, q(vec)))
        expect(val in (0, 1, 2), "class %r has value %d" % (vec, val))
        values[tuple(vec)] = val
    expect(len(values) == len(report["classes"]), "a class is listed twice")
    expect(all(tuple(-x for x in v) in values for v in values),
           "class set is not closed under negation")
    expect(report["value_counts"] == dict(Counter(values.values())),
           "value_counts differ from a recount")
    expect(report["positive"] == (rank(gram) == n),
           "positivity flag differs from the rank of C + C^T")
    if positive_shape:
        nonzero = sum(1 for v in values if any(v))
        want = n * n + n if is_bipartite(nv, ends) else 2 * n * n
        expect(nonzero == want, "%d nonzero classes, expected %d"
               % (nonzero, want))

    cinv = inverse(c)
    psi = [[-x for x in row] for row in matmul(cinv, ct)]
    expect(all(x.denominator == 1 for row in psi for x in row),
           "-C^-1 C^T is not integral")
    expect(report["triangles"], "no triangles were computed")
    for start, end in report["triangles"]:
        expect(matvec(psi, end) == list(start),
               "Psi * class(end) != class(start) for %r -> %r" % (start, end))


# --- Brauer -----------------------------------------------------------------------


def read_brauer_json(text):
    """(number of vertices, multiplicities, edge list) with edges ordered
    as ribbon_from_json numbers them: by the smaller half-edge."""
    data = json.loads(text)
    where = {}
    mult = []
    for i, entry in enumerate(data["vertices"]):
        mult.append(entry.get("multiplicity", 1))
        for p, h in enumerate(entry["halfEdges"]):
            where[str(h)] = (i, p)
    pairs = sorted(tuple(sorted((where[str(a)], where[str(b)])))
                   for a, b in data["iota"])
    return len(mult), mult, [(h1[0], h2[0]) for h1, h2 in pairs]


def check_brauer(output, json_text):
    """Check (cartan, definiteness, tag, repType, corank) for one graph."""
    cartan, definiteness, tag, rep_type, corank = output
    nv, mult, ends = read_brauer_json(json_text)
    ne = len(ends)
    inc = [[0] * nv for _ in range(ne)]
    for e, (u, v) in enumerate(ends):
        inc[e][u] += 1
        inc[e][v] += 1
    want = [[sum(mult[v] * inc[i][v] * inc[j][v] for v in range(nv))
             for j in range(ne)] for i in range(ne)]
    expect(cartan == want, "Cartan matrix != sum of m_v * column_v column_v^T")
    definite = leading_minors_positive(want)
    expect(definiteness == ("positive-definite" if definite
                            else "semidefinite-singular"),
           "definiteness %r disagrees with the leading minors" % definiteness)
    expect(corank == ne - rank(want), "corank != edges - rank")
    cyc = ne - nv + 1
    if cyc == 0:
        want_tag = "tree"
    elif cyc == 1 and unique_cycle_length(nv, ends) % 2 == 1:
        want_tag = "odd-1-cycle"
    else:
        want_tag = "other"
    expect(tag == want_tag, "tag %r, expected %r" % (tag, want_tag))
    trivial = all(m == 1 for m in mult)
    want_rep = None
    if trivial and want_tag == "tree":
        want_rep = "finite"
    elif trivial and want_tag == "odd-1-cycle":
        want_rep = "1-domestic"
    expect(rep_type == want_rep, "repType %r, expected %r" % (rep_type, want_rep))
