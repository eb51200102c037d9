"""Exact linear algebra over the integers.

Everything in here works with arbitrary-precision ints.  No floats, ever:
one fraction-free (Bareiss) elimination serves the rank, the determinant
and the LDL^T decomposition behind the short-vector search, whose rows and
weights are integers and whose pivots decide definiteness.  Its rows with a
zero multiplier are rescaled, or skipped where the pivot ratio is 1, so
sparse inputs such as incidence matrices cost little.
The one place a Fraction can appear is a characteristic polynomial whose
Hessenberg reduction meets a non-dividing pivot.  Every result is exact.
"""

import math
from operator import add, index, sub

from .errors import InternalMismatch


class NotSquare(ValueError):
    pass


class OddValue(ValueError):
    pass


class IntMatrix:
    """Dense integer matrix, row-major."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(map(index, r)) for r in rows)
        if rows:
            w = len(rows[0])
            for r in rows:
                if len(r) != w:
                    raise ValueError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @classmethod
    def _trusted(cls, rows, ncols):
        """Rows computed from checked matrices: int tuples of length ncols."""
        m = object.__new__(cls)
        m.rows, m.nrows, m.ncols = rows, len(rows), ncols
        return m

    @classmethod
    def identity(cls, n):
        return cls._trusted(tuple(tuple(1 if i == j else 0 for j in range(n))
                                  for i in range(n)), n)

    @classmethod
    def from_columns(cls, cols):
        return cls(cols).transpose()

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self):
        rows = tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols
        return IntMatrix._trusted(rows, self.nrows)

    def to_lists(self):
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.ncols == other.ncols)

    def __hash__(self):
        return hash((self.rows, self.ncols))

    def __repr__(self):
        return "IntMatrix(%r)" % (self.to_lists(),)

    def _entrywise(self, op, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch %r vs %r" % (self.shape, other.shape))
        return IntMatrix._trusted(tuple(tuple(map(op, r1, r2))
                                        for r1, r2 in zip(self.rows, other.rows)),
                                  self.ncols)

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch %r * %r" % (self.shape, other.shape))
        # row i of the product is the sum of a * (row k of other) over the
        # nonzero entries a = self[i][k]; zero entries on either side are skipped
        sparse = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        out = []
        for row in self.rows:
            acc = [0] * other.ncols
            for a, nz in zip(row, sparse):
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append(tuple(acc))
        return IntMatrix._trusted(tuple(out), other.ncols)

    # no caller multiplies by a scalar; the name stays because the
    # benchmark's tracer (bench/tracing.py) rebinds it with __mul__
    __rmul__ = __mul__

    def apply(self, vec):
        """Matrix times column vector (tuple in, tuple out)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length %d != %d columns" % (len(vec), self.ncols))
        nz = [(j, x) for j, x in enumerate(vec) if x]
        return tuple(sum(r[j] * x for j, x in nz) for r in self.rows)


def _bareiss(mat):
    """Fraction-free Gaussian elimination (Bareiss) on a copy of mat.

    Returns (rows, pivots, swaps).  pivots[k] is the minor on the first k
    rows, after the swaps, and the first k pivot columns, so pivots[0] = 1
    and there are rank + 1 of them.  Row k holds pivots[k + 1] and the
    eliminated entries right of it; entries left of a row's pivot, and
    the pivot column below it, are left as they stand.  A row whose
    multiplier is 0 is only rescaled by pivot / previous pivot, and is
    skipped when that ratio is 1.
    """
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
        top = a[row]
        p = top[col]
        prev = pivots[-1]
        rest = range(col + 1, m)
        for i in range(row + 1, n):
            r = a[i]
            f = r[col]
            if f:
                for j in rest:
                    r[j] = (p * r[j] - f * top[j]) // prev
            elif p != prev:
                for j in rest:
                    r[j] = p * r[j] // prev
        pivots.append(p)
        row += 1
    return a, pivots, swaps


def rank_corank(mat):
    """(rank, corank) with corank counted against the number of columns.

    Exact for any size of entry; the input matrix is not modified.
    """
    rank = len(_bareiss(mat)[1]) - 1
    return rank, mat.ncols - rank


def det(mat):
    """Determinant by fraction-free elimination."""
    if mat.nrows != mat.ncols:
        raise NotSquare("determinant of a %r matrix" % (mat.shape,))
    _, pivots, swaps = _bareiss(mat)
    if len(pivots) <= mat.nrows:
        return 0
    return -pivots[-1] if swaps % 2 else pivots[-1]


def char_poly(mat):
    """Characteristic polynomial det(z*I - M) as an IntPolynomial.

    M is reduced by similarity to upper Hessenberg form H (Cohen, A Course
    in Computational Algebraic Number Theory, 2.2.4), each column pivoting
    on its nonzero candidate of least absolute value.  An entry stays an
    int while its multiplier divides exactly and becomes a Fraction where
    one does not.  det(z*I - H) then follows from the recurrence over the
    leading blocks of H.  The coefficients are integers, which is checked
    rather than assumed.
    """
    from fractions import Fraction
    if mat.nrows != mat.ncols:
        raise NotSquare("characteristic polynomial of a %r matrix" % (mat.shape,))
    n = mat.nrows
    h = [list(r) for r in mat.rows]
    for m in range(1, n - 1):
        piv = None
        for i in range(m, n):
            a = h[i][m - 1]
            if a and (piv is None or abs(a) < abs(h[piv][m - 1])):
                piv = i
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for r in h:
                r[piv], r[m] = r[m], r[piv]
        # H <- E H E^-1 with E = I - sum_i u_i e_i e_m^tr: subtract u_i times
        # row m from each row i > m, then add u_i times column i to column m
        t = h[m][m - 1]
        pivot_row = [(j, v) for j, v in enumerate(h[m]) if v]
        mults = []
        for i in range(m + 1, n):
            a = h[i][m - 1]
            if a:
                u = a // t if a % t == 0 else Fraction(a, t)
                row = h[i]
                for j, v in pivot_row:
                    row[j] -= u * v
                mults.append((i, u))
        if mults:
            for r in h:
                r[m] += sum(u * r[i] for i, u in mults if r[i])
    # polys[k] = det(z*I - H[:k, :k]), coefficients ascending
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        nxt = [0] + prev
        d = h[m][m]
        if d:
            for k, c in enumerate(prev):
                nxt[k] -= d * c
        t = 1
        for i in range(m - 1, -1, -1):
            t *= h[i + 1][i]
            if not t:
                break       # a zero subdiagonal entry splits H into blocks
            c = t * h[i][m]
            if c:
                for k, v in enumerate(polys[i]):
                    nxt[k] -= c * v
        polys.append(nxt)
    coeffs = polys[n]
    if any(c.denominator != 1 for c in coeffs):
        raise InternalMismatch("non-integral coefficient in char poly")
    return IntPolynomial([c.numerator for c in coeffs])


def qform_eval(gram, x):
    """Evaluate the half-integral form x^T * G * x / 2 for symmetric integer G.

    Only the support of x enters: after one scan of x, the sum of
    G[i][j] x_i x_j runs over the pairs of nonzero coordinates, so its cost
    is quadratic in the support, not in the size of G.  Raises OddValue
    when x^T G x is odd (the form is then not Z-valued at x).
    """
    if gram.nrows != gram.ncols:
        raise NotSquare("gram matrix of shape %r" % (gram.shape,))
    if len(x) != gram.ncols:
        raise ValueError("vector length %d != %d columns" % (len(x), gram.ncols))
    nz = [(i, xi) for i, xi in enumerate(x) if xi]
    rows = gram.rows
    v = 0
    for i, xi in nz:
        row = rows[i]
        for j, xj in nz:
            v += row[j] * xi * xj
    if v % 2 != 0:
        raise OddValue("form value %d is odd at %r" % (v, tuple(x)))
    return v // 2


class IntPolynomial:
    """Integer polynomial, coefficients stored ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(map(index, coeffs))
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def const(cls, v):
        return cls([v])

    @classmethod
    def monomial(cls, n):
        return cls([0] * n + [1])

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial(out)

    def __neg__(self):
        return IntPolynomial([-v for v in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = IntPolynomial([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                term = "%sz" % mag if i == 1 else "%sz^%d" % (mag, i)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self):
        return "IntPolynomial(%r)" % (list(self.coeffs),)


def short_vectors(gram, bound):
    """All integer vectors x != 0 with x^T G x <= bound, for G positive
    definite; [] when the bound is negative.

    Fincke-Pohst enumeration in integers (Cohen, A Course in Computational
    Algebraic Number Theory, 2.7.3) on the LDL^T read off _bareiss.  Raises
    ValueError when G is not symmetric and positive definite.  Returns
    vectors as tuples; for every x only one of x, -x is listed.
    """
    if gram.nrows != gram.ncols:
        raise NotSquare("gram matrix of shape %r" % (gram.shape,))
    if gram.rows != tuple(zip(*gram.rows)):
        raise ValueError("definiteness needs a symmetric matrix")
    n = gram.nrows
    # with no swap and rank n, pivots[k] is the leading principal minor of
    # order k, and all are positive exactly when G is definite (Sylvester's
    # criterion), which then needs no swap.  With a_k row k from column k on
    # and w_k = pivots[k] * pivots[k + 1], x^T G x = sum_k (a_k . x)^2 / w_k
    a, pivots, swaps = _bareiss(gram)
    if swaps or len(pivots) <= n or min(pivots) <= 0:
        raise ValueError("matrix is not positive definite")
    weights = [p * q for p, q in zip(pivots, pivots[1:])]
    if bound < 0:
        return []
    # m * x^T G x = sum_i c_i * (p_i x_i + s_i)^2 with m = lcm(w), c_i = m // w_i,
    # pivot p_i, s_i = sum_{j>i} a_ij x_j; x is fixed from the last entry inward
    m = math.lcm(*weights)
    levels = [(m // w, row[i], [(j, v) for j, v in enumerate(row) if j > i and v])
              for i, (row, w) in enumerate(zip(a, weights))]
    out = []
    x = [0] * n

    def scan(i, remaining):
        if i < 0:
            # of x and -x the scan reaches first the one whose last nonzero
            # entry is negative; only that one is kept
            if next((v for v in reversed(x) if v), 0) < 0:
                out.append(tuple(x))
            return
        c, p, tail = levels[i]
        s = sum(v * x[j] for j, v in tail)
        # integers t with c * (p*t + s)^2 <= remaining, i.e. |p*t + s| <= r
        r = math.isqrt(remaining // c)
        for t in range(-((r + s) // p), (r - s) // p + 1):
            x[i] = t
            scan(i - 1, remaining - c * (p * t + s) ** 2)
        x[i] = 0

    scan(n - 1, m * math.floor(bound))
    return out
