import math
import random
from fractions import Fraction

import pytest

from gentlekit import (cartan_matrix, forbidden_ribbon, incidence_matrix,
                       random_marked_ribbon_graph, to_ribbon)
from gentlekit.brauer import BrauerGraph, brauer_cartan
from gentlekit.exact_linalg import (
    IntMatrix,
    IntPolynomial,
    NotSquare,
    OddValue,
    _bareiss,
    char_poly,
    det,
    qform_eval,
    rank_corank,
    short_vectors,
)
from gentlekit.invariants import euler_analysis

from conftest import definite


def test_rank_corank_basics():
    assert rank_corank(IntMatrix([[2, 2], [2, 4]])) == (2, 0)
    assert rank_corank(IntMatrix([[2, 2], [2, 2]])) == (1, 1)
    assert rank_corank(IntMatrix([[0, 0, 0]] * 3)) == (0, 3)
    assert rank_corank(IntMatrix.identity(5)) == (5, 0)


def test_det_and_char_poly():
    m = IntMatrix([[2, 2], [2, 4]])
    assert det(m) == 4
    p = char_poly(m)
    # det(zI - M) = z^2 - 6z + 4
    assert p.coeffs == (4, -6, 1)
    assert char_poly(IntMatrix.identity(3)).coeffs == (-1, 3, -3, 1)
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1


def _cofactor_det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j]
               * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def test_det_matches_cofactor_expansion():
    rng = random.Random(11)
    cases = []
    for n in range(7):
        for _ in range(25):
            cases.append([[rng.randrange(-3, 4) for _ in range(n)]
                          for _ in range(n)])
    # a zero leading entry forces a row swap; repeated or zero rows and a
    # zero column make the matrix singular
    cases += [
        [[0, 1], [1, 0]],
        [[0, 2, 1], [0, 1, 3], [1, 1, 1]],
        [[0, 0, 1, 2], [0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1]],
        [[1, 2, 3], [1, 2, 3], [0, 1, 1]],
        [[1, 2, 3], [0, 0, 0], [2, 1, 0]],
        [[0, 1, 2], [0, 3, 1], [0, 2, 2]],
        [[2, -1, 3], [4, -2, 6], [1, 1, 1]],
    ]
    singular = swapped = 0
    for rows in cases:
        want = _cofactor_det(rows)
        assert det(IntMatrix(rows)) == want, rows
        singular += want == 0
        swapped += bool(rows) and rows[0][0] == 0
    assert singular >= 10 and swapped >= 10


def _char_poly_matches_cofactor(rows):
    n = len(rows)
    p = char_poly(IntMatrix(rows))
    # a monic polynomial of degree n is fixed by its values at n + 1 points
    assert len(p.coeffs) - 1 == n and p.coeffs[-1] == 1, rows
    for z in range(n + 1):
        shifted = [[(z if i == j else 0) - rows[i][j] for j in range(n)]
                   for i in range(n)]
        value = 0
        for c in reversed(p.coeffs):
            value = value * z + c
        assert value == _cofactor_det(shifted), (rows, z)
    return p


def test_char_poly_matches_cofactor_expansion():
    rng = random.Random(17)
    cases = []
    for n in range(8):
        # the cofactor expansion costs n!, so sizes 6 and 7 get fewer samples
        count = {6: 4, 7: 1}.get(n, 8)
        for _ in range(count):
            cases.append([[rng.randrange(-3, 4) for _ in range(n)]
                          for _ in range(n)])
            cases.append([[rng.randrange(-3, 4) if rng.random() < 0.25 else 0
                           for _ in range(n)] for _ in range(n)])
    for rows in cases:
        _char_poly_matches_cofactor(rows)

    z = IntPolynomial.monomial(1)
    nilpotent = [
        [[0, 1, 2], [0, 0, 3], [0, 0, 0]],
        [[2, 4], [-1, -2]],
        [[-2, 1, 0], [-3, 1, 1], [-1, 0, 1]],
    ]
    for rows in nilpotent:
        assert _char_poly_matches_cofactor(rows) == z ** len(rows)
    for n in range(5):
        assert _char_poly_matches_cofactor([[0] * n for _ in range(n)]) == z ** n
    for rows in [
        # no nonzero entry right below the diagonal: a row swap brings one up
        [[1, 2, 3], [0, 1, 4], [5, 6, 7]],
        # the smallest nonzero entry of the column is not the first one
        [[1, 2, 3], [3, 1, 4], [1, 6, 7]],
        # a zero subdiagonal: the Hessenberg form splits into blocks, with
        # and without entries above the split
        [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]],
        [[1, 2, 5, 1], [3, 4, 1, 2], [0, 0, 5, 6], [0, 0, 7, 8]],
        # the pivot 2 does not divide 3, so entries become fractions
        [[1, 1, 1], [2, 0, 1], [3, 1, 0]],
        [[1, -1, 2, 0], [2, 3, 1, 1], [3, 0, -2, 1], [-3, 1, 1, 2]],
    ]:
        _char_poly_matches_cofactor(rows)


def _random_symmetric(rng, n, lo, hi):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(lo, hi)
    return rows


def test_char_poly_matches_rank_on_random_symmetric():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 6)
        m = IntMatrix(_random_symmetric(rng, n, -3, 4))
        p = char_poly(m)
        # multiplicity of the zero eigenvalue equals the corank
        zeros = 0
        while zeros < n and p.coeffs[zeros] == 0:
            zeros += 1
        assert zeros == rank_corank(m)[1]


def test_matrix_algebra_round_trips():
    m = IntMatrix([[1, 2], [3, 4]])
    assert (m * IntMatrix.identity(2)).to_lists() == m.to_lists()
    assert (2 * m).to_lists() == [[2, 4], [6, 8]]
    assert m.transpose().transpose().to_lists() == m.to_lists()
    assert (m - m).to_lists() == [[0, 0], [0, 0]]
    cols = IntMatrix.from_columns([(1, 3), (2, 4)])
    assert cols.to_lists() == m.to_lists()
    assert m.apply((1, 1)) == (3, 7)


def test_from_columns_rejects_ragged_columns():
    # ragged columns raise like ragged rows, whichever column is short
    for cols in ([(1,), (2, 3)], [(1, 2), (3,)]):
        with pytest.raises(ValueError, match="ragged rows"):
            IntMatrix.from_columns(cols)
    assert IntMatrix.from_columns([]).shape == (0, 0)
    assert IntMatrix.from_columns([(), ()]).shape == (0, 2)


def test_constructors_refuse_non_integers():
    # a float, str or Fraction entry is refused, never truncated
    for bad in (1.5, 2.0, "3", Fraction(1, 2), Fraction(4, 1)):
        with pytest.raises(TypeError):
            IntMatrix([[1, 2], [bad, 3]])
        with pytest.raises(TypeError):
            IntPolynomial([1, bad])
    m = IntMatrix([[True, 2], [False, 3]])
    assert m.to_lists() == [[1, 2], [0, 3]]
    assert all(type(x) is int for r in m.rows for x in r)
    assert IntPolynomial([True, 2]).coeffs == (1, 2)
    # a Hessenberg step that divides inexactly still yields int coefficients
    poly = char_poly(IntMatrix([[0, 1, 1], [2, 0, 1], [3, 1, 0]]))
    assert all(type(c) is int for c in poly.coeffs)


def test_equality_and_hash_see_the_shape():
    # matrices with no rows differ by their column count alone
    empty, wide = IntMatrix([]), IntMatrix([(), ()]).transpose()
    assert wide.shape == (0, 2)
    assert wide != empty and hash(wide) != hash(empty)
    assert len({wide, empty}) == 2
    # equal shapes and entries still compare and hash equal
    assert wide == IntMatrix.from_columns([(), ()])
    assert hash(wide) == hash(IntMatrix.from_columns([(), ()]))
    a = IntMatrix([[1, 2], [3, 4]])
    assert a == a.transpose().transpose() == IntMatrix([(1, 2), (3, 4)])
    assert hash(a) == hash(a.transpose().transpose())
    assert IntMatrix([(), ()]) == IntMatrix([[], []]) != IntMatrix([[]])


def _loop_product(a, b):
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = 0
            for k in range(a.ncols):
                acc += a.rows[i][k] * b.rows[k][j]
            row.append(acc)
        out.append(row)
    return out


def _loop_apply(a, vec):
    out = []
    for i in range(a.nrows):
        acc = 0
        for k in range(a.ncols):
            acc += a.rows[i][k] * vec[k]
        out.append(acc)
    return tuple(out)


def _random_rows(rng, n, m, density):
    return [[rng.randrange(-4, 5) if rng.random() < density else 0
             for _ in range(m)] for _ in range(n)]


def _assert_passes_outside_check(m):
    # derived matrices skip IntMatrix(rows)'s coercion and ragged-row check
    assert isinstance(m.rows, tuple)
    assert all(isinstance(r, tuple) for r in m.rows)
    assert all(type(x) is int for r in m.rows for x in r)
    checked = IntMatrix(m.rows)
    assert checked == m and checked.shape == m.shape


def test_derived_matrices_pass_outside_validation():
    rng = random.Random(67)
    for _ in range(200):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = IntMatrix(_random_rows(rng, n, k, 0.6))
        a2 = IntMatrix(_random_rows(rng, n, k, 0.6))
        b = IntMatrix(_random_rows(rng, k, m, 0.6))
        c = rng.randint(-3, 3)
        for r in (a + a2, a - a2, -a, a * c, c * a, a * b, a.transpose(),
                  (a * b).transpose() - b.transpose() * a.transpose()):
            _assert_passes_outside_check(r)
    empty = IntMatrix([])
    for r in (empty + empty, -empty, empty * 2, empty * empty, empty.transpose()):
        _assert_passes_outside_check(r)


def test_built_matrices_pass_outside_validation(quivers):
    # Cartan, incidence, identity and Brauer Cartan matrices are built from
    # ints and skip the constructor's checks too
    rng = random.Random(5)
    built = [IntMatrix.identity(n) for n in range(4)]
    for gq in quivers.values():
        built += [cartan_matrix(gq), incidence_matrix(to_ribbon(gq))]
        if gq.global_dimension_finite:
            fr = forbidden_ribbon(gq)
            built.append(incidence_matrix(fr.graph, fr.sigma_hat))
    for _ in range(30):
        g = random_marked_ribbon_graph(rng)
        mult = {v: rng.randint(1, 4) for v in g.vertices}
        built += [incidence_matrix(g), brauer_cartan(BrauerGraph(g, mult))]
    for m in built:
        _assert_passes_outside_check(m)
    assert IntMatrix.identity(3).to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_products_match_written_out_loops():
    rng = random.Random(23)
    pairs = []
    for n in range(5):
        for k in range(5):
            for m in range(5):
                for density in (1.0, 0.3):
                    pairs.append((_random_rows(rng, n, k, density),
                                  _random_rows(rng, k, m, density)))
    pairs += [
        ([[1, 0, 2], [0, 0, 0], [3, 0, 4]], [[1, 2], [5, 6], [0, 0]]),
        ([[0, 0], [0, 0]], [[1, 2], [3, 4]]),
        ([[1, 2], [3, 4]], [[0, 0], [0, 0]]),
        ([[], [], []], []),
        ([], []),
    ]
    for rows_a, rows_b in pairs:
        a, b = IntMatrix(rows_a), IntMatrix(rows_b)
        if a.ncols != b.nrows:
            # a matrix with no rows keeps no column count
            continue
        got = a * b
        assert got.to_lists() == _loop_product(a, b), (rows_a, rows_b)
        assert got.shape == (a.nrows, b.ncols)
        vec = tuple(rng.randrange(-3, 4) for _ in range(a.ncols))
        assert a.apply(vec) == _loop_apply(a, vec)
        assert a.apply((0,) * a.ncols) == (0,) * a.nrows
    m = IntMatrix([[1, 0, -2], [0, 0, 0], [3, 4, 0]])
    for c in (2, 0, -3):
        scaled = [[c * x for x in r] for r in m.rows]
        assert (c * m).to_lists() == scaled
        assert (m * c).to_lists() == scaled
        assert m.__rmul__(c).to_lists() == scaled
    assert (2 * IntMatrix([[], []])).shape == (2, 0)
    assert IntMatrix([[], []]).apply(()) == (0, 0)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]) * IntMatrix([[1, 2]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3, 4]]) * IntMatrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        m.apply((1, 2))
    with pytest.raises(ValueError):
        IntMatrix([[], []]).apply((1,))


def test_qform_eval():
    g = IntMatrix([[2, 2], [2, 4]])
    assert qform_eval(g, (1, 0)) == 1
    assert qform_eval(g, (1, -1)) == 1
    assert qform_eval(g, (0, 1)) == 2
    with pytest.raises(OddValue):
        qform_eval(IntMatrix([[1, 0], [0, 2]]), (1, 0))
    with pytest.raises(NotSquare):
        qform_eval(IntMatrix([[1, 0, 0], [0, 1, 0]]), (1, 0, 0))
    for x in ((1, 0, 0), (1,)):
        with pytest.raises(ValueError):
            qform_eval(g, x)


def _dense_form(rows, x):
    """x^T G x by the full double sum over every index pair."""
    n = len(x)
    return sum(rows[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


def test_qform_eval_matches_dense_sum():
    rng = random.Random(41)
    for n in range(9):
        for _ in range(25):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            if rng.random() < 0.5:
                # even diagonal: x^T G x is even at every x
                for i in range(n):
                    rows[i][i] = 2 * rng.randint(-2, 2)
            g = IntMatrix(rows)
            vectors = [(0,) * n]
            for k in (1, 2, n):
                x = [0] * n
                for i in rng.sample(range(n), min(k, n)):
                    x[i] = rng.choice((-3, -2, -1, 1, 2, 3))
                vectors.append(tuple(x))
            for x in vectors:
                v = _dense_form(rows, x)
                if v % 2:
                    with pytest.raises(OddValue):
                        qform_eval(g, x)
                else:
                    assert qform_eval(g, x) == v // 2, (rows, x)


def test_positive_definiteness_checks():
    assert definite(IntMatrix([[2, 2], [2, 4]]))
    assert det(IntMatrix([[2, 2], [2, 4]])) != 0
    assert det(IntMatrix([[2, 2], [2, 2]])) == 0
    assert not definite(IntMatrix([[2, 2], [2, 2]]))
    assert not definite(IntMatrix([[0, 1], [1, 0]]))
    assert not definite(IntMatrix([[0, 0], [0, 0]]))
    assert not definite(IntMatrix([[2, 0], [0, -1]]))
    assert definite(IntMatrix([]))
    # the upper triangle of this one is definite; the symmetry check rejects it
    with pytest.raises(ValueError, match="symmetric"):
        short_vectors(IntMatrix([[2, 1], [0, 2]]), 0)


def test_one_elimination_per_call(monkeypatch):
    # rank, determinant and definiteness all read one Bareiss elimination
    from gentlekit import exact_linalg
    calls = []
    bareiss = exact_linalg._bareiss
    monkeypatch.setattr(exact_linalg, "_bareiss",
                        lambda mat: calls.append(mat) or bareiss(mat))
    a3 = IntMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    hyperbolic = IntMatrix([[0, 1, 0, 0], [1, 0, 0, 0],
                            [0, 0, 0, 1], [0, 0, 1, 0]])
    for fn, gram, expected in [
            (rank_corank, a3, (3, 0)), (det, a3, 4),
            (lambda g: len(short_vectors(g, 2)), a3, 6),
            (rank_corank, hyperbolic, (4, 0)), (det, hyperbolic, 1)]:
        calls.clear()
        assert fn(gram) == expected
        assert calls == [gram]
    calls.clear()
    with pytest.raises(ValueError, match="not positive definite"):
        short_vectors(hyperbolic, 2)
    assert calls == [hyperbolic]


def _bareiss_reference(mat):
    """The elimination written out in full: every entry right of the pivot
    in every lower row is recomputed, whatever its multiplier."""
    a = [list(r) for r in mat.rows]
    n, m = mat.nrows, mat.ncols
    pivots = [1]
    swaps = 0
    row = 0
    for col in range(m):
        if row == n:
            break
        piv = None
        for i in range(row, n):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            swaps += 1
        p = a[row][col]
        prev = pivots[-1]
        for i in range(row + 1, n):
            for j in range(col + 1, m):
                a[i][j] = (p * a[i][j] - a[i][col] * a[row][j]) // prev
        pivots.append(p)
        row += 1
    return a, pivots, swaps


def _shaped(rows, m):
    # IntMatrix(rows) keeps no column count without rows; a transpose does
    return IntMatrix(rows) if rows else IntMatrix([[]] * m).transpose()


def test_bareiss_matches_the_full_loop(quivers):
    # the elimination that skips zero multipliers returns the rows, pivots
    # and swap count of the full loop, entries left of the pivots included
    rng = random.Random(71)
    cases = []
    for n in range(13):
        for m in range(13):
            for density in (1.0, 0.5, 0.2) * 2:
                cases.append(_shaped(_random_rows(rng, n, m, density), m))
    for _ in range(300):
        # rank at most k < min(n, m), then a few columns zeroed
        n, m = rng.randint(2, 12), rng.randint(2, 12)
        k = rng.randint(1, min(n, m) - 1)
        b = IntMatrix(_random_rows(rng, n, k, 0.7))
        c = IntMatrix(_random_rows(rng, k, m, 0.7))
        zero = set(rng.sample(range(m), rng.randint(0, m // 2)))
        cases.append(IntMatrix([[0 if j in zero else x for j, x in enumerate(r)]
                                for r in (b * c).rows]))
    for _ in range(300):
        # a zero top-left corner forces swaps
        n, m = rng.randint(2, 10), rng.randint(1, 10)
        rows = _random_rows(rng, n, m, 0.6)
        for i in range(rng.randint(1, n - 1)):
            rows[i][0] = 0
        rows[-1][0] = rng.choice((-2, -1, 1, 3))
        cases.append(IntMatrix(rows))
    for _ in range(800):
        # Brauer-like vertex-by-edge incidence: 0/1/2, at most two per column
        n, m = rng.randint(3, 8), rng.randint(2, 11)
        cols = []
        for _ in range(m):
            u, v = rng.randrange(n), rng.randrange(n)
            cols.append([(i == u) + (i == v) for i in range(n)])
        cases.append(IntMatrix.from_columns(cols))
    for k in range(600):
        g = random_marked_ribbon_graph(rng, kind=("any", "tree", "odd1cycle")[k % 3])
        cases.append(incidence_matrix(g).transpose())
    for gq in quivers.values():
        c = cartan_matrix(gq)
        cases += [c, c + c.transpose(), incidence_matrix(to_ribbon(gq)).transpose()]
    seen = {"swaps": 0, "singular": 0, "zero column": 0}
    for mat in cases:
        got = _bareiss(mat)
        assert got == _bareiss_reference(mat), mat
        seen["swaps"] += got[2] > 0
        seen["singular"] += len(got[1]) - 1 < min(mat.shape)
        seen["zero column"] += any(not any(col) for col in zip(*mat.rows))
    assert len(cases) >= 3000
    assert min(seen.values()) >= 300, seen


def _psd_by_char_poly(m):
    # det(zI - M) has no negative root iff (-1)^(n-k) c_k >= 0 for every
    # coefficient, since the c_k are signed elementary symmetric functions
    # of the (real) spectrum
    n = m.nrows
    return all((-1) ** (n - k) * c >= 0
               for k, c in enumerate(char_poly(m).coeffs))


def _psd_by_elimination(m):
    n = m.nrows
    a = [[Fraction(x) for x in r] for r in m.rows]
    for k in range(n):
        if a[k][k] < 0:
            return False
        if a[k][k] == 0:
            if any(a[k][j] != 0 for j in range(k, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


def test_psd_matches_fraction_pivot_oracle(quivers):
    # the library's definiteness test (short_vectors raising or not) against
    # two semidefiniteness routes computed here, the sign pattern of the
    # characteristic polynomial and a symmetric elimination over Fractions,
    # together with det != 0
    rng = random.Random(11)
    cases = []
    for n in range(9):
        for _ in range(12):
            cases.append(_random_symmetric(rng, n, -3, 4))
            zero_diag = _random_symmetric(rng, n, -2, 3)
            for i in range(n):
                zero_diag[i][i] = 0
            cases.append(zero_diag)
            if n == 0:
                continue
            # B B^tr with fewer columns than rows is singular
            k = rng.randint(1, n)
            b = IntMatrix([[rng.randrange(-2, 3) for _ in range(k)]
                           for _ in range(n)])
            gram = (b * b.transpose()).to_lists()
            cases.append(gram)
            # a symmetric +-1 at one place tips some of them out of the cone
            i, j = rng.randrange(n), rng.randrange(n)
            s = rng.choice((-1, 1))
            gram[i][j] += s
            if i != j:
                gram[j][i] += s
            cases.append(gram)
    for k in range(60):
        g = random_marked_ribbon_graph(rng, kind=("any", "tree",
                                                  "odd1cycle")[k % 3])
        if len(g.edges) <= 8:
            mult = {v: rng.randint(1, 4) for v in g.vertices}
            cases.append(brauer_cartan(BrauerGraph(g, mult)).to_lists())

    seen = {"pd": 0, "not pd": 0, "singular psd": 0, "not psd": 0}
    for rows in cases:
        m = IntMatrix(rows)
        psd = _psd_by_char_poly(m)
        assert psd == _psd_by_elimination(m), rows
        pd = definite(m)
        assert pd == (psd and det(m) != 0), rows
        seen["pd" if pd else "not pd"] += 1
        seen["singular psd"] += psd and not pd
        seen["not psd"] += not psd
    assert min(seen.values()) >= 40, seen

    # short_vectors on the fixtures' positive Euler forms, frozen
    want = {
        "loop": {2: [], 4: [(-1,)], 8: [(-1,)]},
        "tree": {2: [(0, -1), (1, -1), (-1, 0)],
                 4: [(0, -1), (1, -1), (-1, 0)],
                 8: [(0, -2), (1, -2), (2, -2), (-1, -1), (0, -1), (1, -1),
                     (2, -1), (-2, 0), (-1, 0)]},
        "smallrow2": {2: [(1, -1), (-1, 0)],
                      4: [(0, -1), (1, -1), (2, -1), (-1, 0)],
                      8: [(2, -2), (0, -1), (1, -1), (2, -1), (-2, 0),
                          (-1, 0)]},
    }
    for name, gq in quivers.items():
        gram = euler_analysis(gq).gramProjectives
        if name in want:
            assert {b: short_vectors(gram, b) for b in (2, 4, 8)} == want[name]
        else:
            with pytest.raises(ValueError):
                short_vectors(gram, 4)


def test_polynomial_arithmetic():
    z = IntPolynomial.monomial(1)
    one = IntPolynomial.const(1)
    p = (z - one) * (z + one)
    assert p.coeffs == (-1, 0, 1)
    assert ((z + one) ** 2).coeffs == (1, 2, 1)
    assert str((z + one) ** 2) == "z^2 + 2*z + 1"
    assert str(p) == "z^2 - 1"
    # the zero polynomial has an empty coefficient tuple
    assert IntPolynomial.const(0).coeffs == ()


def _root_counts(gram):
    """{v: #x with x^T G x / 2 == v} for v = 1, 2, both x and -x counted,
    by bucketing the short vectors of bound 4 under the dense form."""
    counts = {1: 0, 2: 0}
    for x in short_vectors(gram, 4):
        counts[_dense_form(gram.rows, x) // 2] += 2
    return counts


def test_short_vectors_and_root_counts():
    g = IntMatrix([[2]])
    vs = short_vectors(g, 2)
    # one representative per +/- pair
    assert len(vs) == 1 and vs[0] in ((1,), (-1,))
    counts = _root_counts(g)
    assert counts == {1: 2, 2: 0}
    # A2 gram: q = x^2 - xy + y^2 has six 1-roots
    a2 = IntMatrix([[2, -1], [-1, 2]])
    assert _root_counts(a2) == {1: 6, 2: 0}
    # C2 gram from the two-arrow one-vertex row quiver
    c2 = IntMatrix([[2, 2], [2, 4]])
    assert _root_counts(c2) == {1: 4, 2: 4}
    with pytest.raises(ValueError):
        short_vectors(IntMatrix([[2, 2], [2, 2]]), 2)


def _fraction_short_vectors(rows, bound):
    """short_vectors' list by a scan over Fractions: Gaussian elimination
    gives q(x) = sum_i d_i * (x_i - centre_i)^2, and each level tries every
    integer within isqrt(remaining / d_i) + 1 of its centre.  Same order as
    the library: ascending x_i, the last coordinate outermost."""
    n = len(rows)
    a = [[Fraction(v) for v in r] for r in rows]
    d, u = [], []
    for k in range(n):
        d.append(a[k][k])
        u.append([a[k][j] / a[k][k] for j in range(n)])
        for i in range(k + 1, n):
            for j in range(n):
                a[i][j] -= u[k][i] * a[k][j]
    out = []

    def scan(i, x, remaining):
        if i < 0:
            last = next((v for v in reversed(x) if v), 0)
            if last < 0:
                out.append(tuple(x))
            return
        centre = -sum(u[i][j] * x[j] for j in range(i + 1, n))
        reach = math.isqrt(math.floor(remaining / d[i])) + 1
        for t in range(math.floor(centre) - reach, math.ceil(centre) + reach + 1):
            left = remaining - d[i] * (t - centre) ** 2
            if left >= 0:
                x[i] = t
                scan(i - 1, x, left)
        x[i] = 0

    scan(n - 1, [0] * n, Fraction(bound))
    return out


def test_short_vectors_match_fraction_scan():
    # random B B^tr: full rank ones are positive definite, the rest must
    # raise; lists are compared with their order, which is the same at
    # every bound, so the scan runs once at the largest
    rng = random.Random(29)
    seen = {"definite": 0, "singular": 0, "vectors": 0}
    for n in range(7):
        for _ in range(30 if n else 1):
            k = rng.randint(max(n - 1, 0), n + 2)
            b = IntMatrix([[rng.randint(-2, 2) for _ in range(k)]
                           for _ in range(n)])
            g = b * b.transpose()
            if det(g) == 0:
                seen["singular"] += 1
                with pytest.raises(ValueError, match="not positive definite"):
                    short_vectors(g, 2)
                continue
            seen["definite"] += 1
            scanned = _fraction_short_vectors(g.rows, 7)
            for bound in (0, 1, 2, 4, 7):
                got = short_vectors(g, bound)
                assert got == [x for x in scanned
                               if _dense_form(g.rows, x) <= bound], (g, bound)
                seen["vectors"] += len(got)
            # a negative bound admits no vector, and one that is not an
            # int acts as its floor
            assert short_vectors(g, -1) == short_vectors(g, -0.5) == []
            assert short_vectors(g, Fraction(15, 2)) == got
    assert seen["definite"] >= 100 and seen["singular"] >= 20, seen
    assert seen["vectors"] >= 1000, seen


def test_root_counts_against_naive_box():
    # independent recount with a crude coordinate bound
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(1, 4)
        b = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        bm = IntMatrix(b)
        # doubled to keep the diagonal even, shifted to force definiteness;
        # q(x) >= |x|^2 so roots of value <= 2 fit in the small box below
        m = (bm * bm.transpose() + IntMatrix.identity(n)) * 2
        got = _root_counts(m)
        lists = m.to_lists()
        naive = {1: 0, 2: 0}
        bound = 3
        def walk(prefix):
            if len(prefix) == n:
                v = sum(lists[i][j] * prefix[i] * prefix[j]
                        for i in range(n) for j in range(n))
                if v in (2, 4) and any(prefix):
                    naive[v // 2] += 1
                return
            for x in range(-bound, bound + 1):
                walk(prefix + (x,))
        walk(())
        assert got == naive
