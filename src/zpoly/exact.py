"""Exact rational linear algebra and polynomial utilities.

No floating point is used anywhere, so results are reproducible and
comparisons are exact.  Matrices, representation vectors and row-basis
vectors and coordinates keep every entry in one normal form, through
`exact_entry`: a Python int when it is integral, a `fractions.Fraction`
otherwise.  Products of integral matrices therefore never build a
Fraction, and no `/` touches a matrix or vector entry.  Polynomial
coefficients follow the same normal form: a univariate polynomial is the
tuple of its coefficients from X^0 up (`char_poly`, `classify_roots`,
`poly_text`), and `MPoly` maps exponent tuples to coefficients.  Roots are
classified on integer coefficients only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction


def exact_entry(x):
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# matrices (tuples of rows, entries in the normal form of `exact_entry`)


class QMat:
    """Immutable dense rational matrix."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        # Hot paths build tuples from lists: tuple() of a generator fills a
        # 10-slot tuple and shrinks it, so once freed it stays in CPython's
        # free list of its final size until the next full collection.  Ints
        # skip the call to exact_entry.
        self.rows = tuple([tuple([x if type(x) is int else exact_entry(x) for x in r])
                           for r in rows])
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int) -> "QMat":
        return QMat([[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n: int, m: int) -> "QMat":
        return QMat([[0] * m for _ in range(n)])

    def __eq__(self, other):
        return isinstance(other, QMat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other: "QMat") -> "QMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return QMat([[a + b for a, b in zip(r1, r2)]
                     for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "QMat") -> "QMat":
        return self + other.scale(-1)

    def scale(self, c) -> "QMat":
        c = exact_entry(c)
        return QMat([[c * x for x in r] for r in self.rows])

    def __mul__(self, other: "QMat") -> "QMat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return QMat([[sum(map(operator.mul, r, c)) for c in cols] for r in self.rows])

    def matvec(self, v):
        """self @ v for a vector given as a tuple; returns a tuple."""
        return tuple([sum(map(operator.mul, r, v)) for r in self.rows])

    def vecmat(self, v):
        """v @ self for a row vector; returns a tuple."""
        return tuple([sum(map(operator.mul, v, c)) for c in zip(*self.rows)])

    def transpose(self) -> "QMat":
        return QMat(list(zip(*self.rows)))

    def trace(self):
        return exact_entry(sum(self.rows[i][i] for i in range(self.nrows)))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def power(self, e: int) -> "QMat":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        result = QMat.identity(self.nrows)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self):
        return "QMat(%r)" % (self.rows,)


def common_denominator(xs) -> int:
    """The least positive d such that d x is an integer for every x in xs
    (ints or Fractions)."""
    return math.lcm(*(x.denominator for x in xs))


def integer_row(v, d: int):
    """d v as a list of ints; d must be a multiple of common_denominator(v)."""
    return [x.numerator * (d // x.denominator) for x in v]


class RowBasis:
    """Incremental basis of rational row vectors (for reachability closures).

    Each inserted vector x_j is scaled to integers once, x'_j = s_j x_j.
    The echelon rows are primitive integer rows kept in insertion order:
    row i is zero in the pivot columns of the rows before it, and carries
    its combination of the scaled inserted vectors,  row_i = sum_j c_ij x'_j.
    Reducing a vector against the rows therefore also yields its
    coordinates, and `coords` is a single elimination pass.

    `insert` returns True when the vector enlarged the span.  `coords`
    expresses a vector in the inserted vectors, or returns None when the
    vector is outside the span (and, with insert=True, inserts it from the
    same elimination pass).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.vectors = []   # inserted vectors, in insertion order
        self._scales = []   # s_j
        self._rows = []     # (pivot column, echelon row, combination)

    def _reduce(self, v):
        """(s, u, a, m) with  u = m s v - sum_j a_j x'_j  and u zero in
        every pivot column; u is zero exactly when v is in the span."""
        s = common_denominator(v)
        u = integer_row(v, s)
        a = [0] * len(self.vectors)
        m = 1
        for p, row, combo in self._rows:
            b = u[p]
            if not b:
                continue
            r = row[p]
            g = math.gcd(r, b)
            r //= g
            b //= g
            u = [r * x - b * y for x, y in zip(u, row)]
            a = [r * x + b * y for x, y in zip(a, combo)] + [r * x for x in a[len(combo):]]
            m *= r
        return s, u, a, m

    def _extend(self, v, s, u, a, m) -> bool:
        """Insert v, given its reduction (s, u, a, m); False when u is zero."""
        pivot = next((j for j, x in enumerate(u) if x), None)
        if pivot is None:
            return False
        # u = m x'_new - sum_j a_j x'_j, with x'_new = s v
        combo = [-x for x in a] + [m]
        g = math.gcd(*u, *combo)
        if u[pivot] < 0:
            g = -g
        self.vectors.append(tuple([exact_entry(x) for x in v]))
        self._scales.append(s)
        self._rows.append((pivot, [x // g for x in u], [x // g for x in combo]))
        return True

    def contains(self, v) -> bool:
        return not any(self._reduce(v)[1])

    def insert(self, v) -> bool:
        return self._extend(v, *self._reduce(v))

    def coords(self, v, insert: bool = False):
        """Coefficients c with v == sum c_i * vectors[i], or None when v is
        outside the span; with insert=True, v is then inserted."""
        s, u, a, m = self._reduce(v)
        if any(u):
            if insert:
                self._extend(v, s, u, a, m)
            return None
        d = m * s
        return tuple([exact_entry(Fraction(x * sj, d)) for x, sj in zip(a, self._scales)])

    def __len__(self):
        return len(self.vectors)


# ---------------------------------------------------------------------------
# univariate polynomials: coefficient sequences, low degree -> high degree


def poly_text(coeffs) -> str:
    """The polynomial with these coefficients, as in "3/2 + -7/2*X + X^2"."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("%s*X" % c if c != 1 else "X")
        else:
            parts.append("%s*X^%d" % (c, i) if c != 1 else "X^%d" % i)
    return " + ".join(parts) or "0"


def char_poly(m: QMat) -> tuple:
    """The coefficients of the characteristic polynomial det(X - m), from
    X^0 up to the leading 1, by the Faddeev-LeVerrier recurrence run on
    integers.  They are in the normal form of `exact_entry`, so an integral
    matrix gives ints and builds no Fraction.

    With d the lcm of the denominators of m, B = d m is an integer matrix.
    The recurrence  M_1 = B,  c_k = -tr(M_k) / k,  M_{k+1} = (M_k + c_k) B
    keeps every M_k and c_k integral (c_k is a coefficient of det(X - B),
    so the division by k is exact).  Since det(X - m) = d^-n det(dX - B),
    the coefficient of X^(n-i) in det(X - m) is c_i / d^i.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("not square")
    d = common_denominator(x for r in m.rows for x in r)
    b = m.scale(d)
    coeffs = [1]    # c_0 .. c_n, for X^n .. X^0
    mk = b
    for k in range(1, n + 1):
        ck = -mk.trace() // k
        coeffs.append(ck)
        if k < n:
            mk = QMat([[x + ck if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(mk.rows)]) * b
    return tuple([exact_entry(Fraction(c, d ** i)) if d > 1 else c
                  for i, c in reversed(list(enumerate(coeffs)))])


# ---------------------------------------------------------------------------
# root classification


def classify_roots(p, mode: str) -> bool:
    """Check where all complex roots of a monic rational polynomial lie;
    `p` is its coefficient sequence from X^0 up, ending in the leading 1.

    mode "zero_one": every root is 0 or 1, i.e. p = X^a (X-1)^n.
    mode "zero_union_unity": every root is 0 or a root of unity, i.e. the
    nonzero part of p is a product of cyclotomic polynomials.

    Both hold only for integral p (0, 1 and roots of unity are algebraic
    integers).  With p = X^a q and q(0) != 0 of degree n, the second mode
    runs Graeffe's root-squaring  q'(X^2) = (-1)^n q(X) q(-X),  whose roots
    are the squares of q's.  A coefficient |q_i| > C(n, i) shows, by Vieta,
    a root of modulus > 1.  A step that returns q unchanged maps q's roots
    onto themselves, so each is a root of unity.  One of the two happens:
    by Kronecker an integral q whose roots all have modulus <= 1 is a
    product of cyclotomic polynomials, and squaring sends Phi_m to Phi_m
    for odd m, Phi_2m to Phi_m for odd m and Phi_m to Phi_(m/2)^2 when
    4 | m, so such a product is fixed within log2(n) + 2 steps.  If q has a
    root of modulus > 1, its Mahler measure (the product of the root moduli
    that exceed 1) is > 1 and squared by each step, while within the bound
    it is at most the Euclidean norm of the coefficients (Landau), so the
    bound breaks.
    """
    if not p or p[-1] != 1:
        raise ValueError("classify_roots requires a monic polynomial")
    if mode not in ("zero_one", "zero_union_unity"):
        raise ValueError("unknown mode %r" % mode)
    if any(c.denominator != 1 for c in p):
        return False
    q = [int(c) for c in p]
    q = q[next(i for i, c in enumerate(q) if c):]
    n = len(q) - 1
    if mode == "zero_one":
        return q == [(-1) ** (n - i) * math.comb(n, i) for i in range(n + 1)]
    while all(abs(c) <= math.comb(n, i) for i, c in enumerate(q)):
        r = [0] * (2 * n + 1)    # q(X) q(-X)
        for i, a in enumerate(q):
            for j, b in enumerate(q):
                r[i + j] += (-1) ** j * a * b
        squared = [(-1) ** n * c for c in r[::2]]
        if squared == q:
            return True
        q = squared
    return False


# ---------------------------------------------------------------------------
# multivariate polynomials (dict: exponent tuple -> coefficient)


class MPoly:
    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        self.arity = arity
        self.terms = {tuple(e): exact_entry(c) for e, c in (terms or {}).items() if c != 0}

    @staticmethod
    def const(arity: int, c) -> "MPoly":
        return MPoly(arity, {(0,) * arity: c})

    @staticmethod
    def var(arity: int, i: int) -> "MPoly":
        e = [0] * arity
        e[i] = 1
        return MPoly(arity, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.arity == other.arity
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __add__(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return MPoly(self.arity, t)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = exact_entry(c)
        return MPoly(self.arity, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return MPoly(self.arity, t)

    def eval(self, point):
        return exact_entry(sum([c * math.prod([x ** k for x, k in zip(point, e)])
                                for e, c in self.terms.items()]))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
            mon = "*".join("X%d^%d" % (i + 1, k) if k > 1 else "X%d" % (i + 1)
                           for i, k in enumerate(e) if k)
            parts.append(str(c) if not mon else
                         ("%s*%s" % (c, mon) if c != 1 else mon))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Newton forward differences on downward-closed point sets
#
# Values at x0 + t, t in a set T of multi-indices closed under lowering a
# coordinate (the simplex {|t| <= d}, or the grid {0..d}^arity), are a flat
# list in the lexicographic order of T.  The Newton coefficients are
# c_i = Delta^i f(x0) for i in T, so f(x0 + t) = sum_i c_i prod_j C(t_j, i_j)
# when f is a polynomial whose coefficients outside T vanish.  Delta^i f(x0)
# reads only points t <= i, all in T; integer values give integer
# coefficients, and the total degree is the largest |i| with c_i != 0.


@functools.cache
def simplex_points(arity: int, d: int):
    """The C(d + arity, arity) multi-indices t in N^arity with |t| <= d."""
    return tuple(t for t in itertools.product(range(d + 1), repeat=arity) if sum(t) <= d)


@functools.cache
def _difference_rows(points):
    """Per i in points, the pairs (position of t, coefficient) of
    Delta^i f(x0) = sum_{t <= i} prod_j (-1)^(i_j - t_j) C(i_j, t_j) f(x0 + t)."""
    index = {t: n for n, t in enumerate(points)}
    return [[(index[t], math.prod((-1) ** (a - b) * math.comb(a, b) for a, b in zip(i, t)))
             for t in itertools.product(*[range(a + 1) for a in i])] for i in points]


def _differences(values, points):
    return [sum([c * values[n] for n, c in row]) for row in _difference_rows(points)]


def _to_mpoly(coeffs, points, d: int, x0: int) -> MPoly:
    # basis[i]: the coefficients of C(X - x0, i) = C(X - x0, i - 1) (X - x0 - i + 1) / i
    basis = [[1]]
    for i in range(1, d + 1):
        b = basis[-1]
        basis.append([Fraction(u - (x0 + i - 1) * v, i) for u, v in zip([0] + b, b + [0])])
    terms = {}
    for i, c in zip(points, coeffs):
        for p in itertools.product(*[range(a + 1) for a in i]):
            terms[p] = terms.get(p, 0) + c * math.prod(basis[a][e] for a, e in zip(i, p))
    return MPoly(len(points[0]), terms)


def newton_coefficients(values, arity: int, d: int):
    """Newton coefficients of the values on the simplex |t| <= d."""
    return _differences(values, simplex_points(arity, d))


def newton_degree(coeffs, arity: int, d: int) -> int:
    """Total degree of a Newton form on the simplex, or -1 when it is zero."""
    return max((sum(i) for i, c in zip(simplex_points(arity, d), coeffs) if c), default=-1)


def newton_to_mpoly(coeffs, arity: int, d: int, x0: int) -> MPoly:
    return _to_mpoly(coeffs, simplex_points(arity, d), d, x0)


def interpolate_grid(arity: int, per_var_degree: int, x0: int, value_at) -> MPoly:
    """Exact interpolation on the grid {x0..x0+d}^arity.

    `value_at` maps a grid point (tuple of ints) to a rational value.
    The result has per-variable degree at most `per_var_degree` and agrees
    with `value_at` on the whole grid.
    """
    d = per_var_degree
    points = tuple(itertools.product(range(d + 1), repeat=arity))
    values = [value_at(tuple(x0 + i for i in t)) for t in points]
    return _to_mpoly(_differences(values, points), points, d, x0)


# ---------------------------------------------------------------------------
# Cauchy products of polynomials


def poly_cauchy(p: MPoly, q: MPoly, var: int = 0) -> MPoly:
    """Cauchy product along variable `var`:

    (p (x) q)(X, Y..) = sum_{i=0}^{X} p(i, Y..) q(X - i, Y..)
    exactly, as a polynomial identity for integer X >= 0.  Its degree in
    each variable is at most deg p + deg q + 1, so it is interpolated from
    the exact sums on the grid {0..deg p + deg q + 1}^arity.
    """
    if p.arity != q.arity:
        raise ValueError("arity mismatch")
    if p.is_zero() or q.is_zero():
        return MPoly(p.arity)

    def value_at(x):
        head, n, tail = x[:var], x[var], x[var + 1:]
        return sum([p.eval(head + (i,) + tail) * q.eval(head + (n - i,) + tail)
                    for i in range(n + 1)])

    return interpolate_grid(p.arity, p.total_degree() + q.total_degree() + 1, 0, value_at)
