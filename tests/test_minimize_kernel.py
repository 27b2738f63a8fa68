"""Differential tests of the minimization kernel.

The oracle below is the original path: a row-reduced Fraction basis, and
coordinates found by solving a fresh augmented system [basis^T | v] for
every vector, in a second loop over (basis vector, letter) pairs after the
breadth-first search.  The library keeps integer echelon rows that track
their combination of the inserted vectors and records coordinates during
the search.  Coordinates in an independent basis are unique, so both must
return exactly the same Fractions: the same I, mu, F and span bases.
"""

import random
from collections import deque
from fractions import Fraction

import pytest

from conftest import count_a, is_exact_entry, signed_length, twelve_term_function
from zpoly.exact import QMat
from zpoly.lang import Alphabet
from zpoly.series import LinRep, SpanBasis, reduce_minimize

# ---------------------------------------------------------------------------
# the oracle


def solve_linear(aug):
    """One solution of the augmented system [A | b] (free variables zero),
    or None when it is inconsistent."""
    mat = [list(map(Fraction, r)) for r in aug]
    nrows = len(mat)
    ncols = len(mat[0]) - 1 if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if any(mat[i][ncols] != 0 for i in range(r, nrows)):
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = mat[i][ncols]
    return tuple(sol)


class OracleBasis:
    def __init__(self, dim):
        self.dim = dim
        self.vectors = []
        self._rref = []
        self._pivots = []

    def insert(self, v):
        red = list(map(Fraction, v))
        for row, p in zip(self._rref, self._pivots):
            if red[p] != 0:
                f = red[p]
                red = [x - f * y for x, y in zip(red, row)]
        pivot = next((j for j in range(self.dim) if red[j] != 0), None)
        if pivot is None:
            return False
        self.vectors.append(tuple(map(Fraction, v)))
        self._rref.append([x / red[pivot] for x in red])
        self._pivots.append(pivot)
        return True

    def coords(self, v):
        n = len(self.vectors)
        aug = [[self.vectors[i][j] for i in range(n)] + [Fraction(v[j])]
               for j in range(self.dim)]
        return solve_linear(aug)


def oracle_forward_reduce(rep):
    basis = OracleBasis(rep.dim)
    words = []
    queue = deque()
    if basis.insert(rep.I):
        words.append(())
        queue.append(((), rep.I))
    while queue:
        w, v = queue.popleft()
        for a in rep.alphabet:
            v2 = rep.mats[a].vecmat(v)
            if basis.insert(v2):
                words.append(w + (a,))
                queue.append((w + (a,), v2))
    if not basis.vectors:
        zero = LinRep(rep.alphabet, (), {a: QMat([]) for a in rep.alphabet}, ())
        return zero, SpanBasis([], [])
    mats = {a: QMat([basis.coords(rep.mats[a].vecmat(bv)) for bv in basis.vectors])
            for a in rep.alphabet}
    F = tuple(sum(bv[j] * rep.F[j] for j in range(rep.dim)) for bv in basis.vectors)
    return LinRep(rep.alphabet, basis.coords(rep.I), mats, F), SpanBasis(words, basis.vectors)


def oracle_reduce_minimize(rep):
    fwd, row_basis = oracle_forward_reduce(rep)
    if fwd.dim == 0:
        return fwd, row_basis, SpanBasis([], [])
    transpose = lambda r: LinRep(r.alphabet, r.F, {a: m.transpose() for a, m in r.mats.items()},
                                 r.I)
    bwd_t, col_t = oracle_forward_reduce(transpose(fwd))
    return (transpose(bwd_t), row_basis,
            SpanBasis([tuple(reversed(w)) for w in col_t.words], col_t.vectors))


# ---------------------------------------------------------------------------
# comparison


def fingerprint(result):
    """Everything reduce_minimize returns, and its numbers."""
    rep, rows, cols = result
    vectors = [rep.I, rep.F, *(r for a in rep.alphabet for r in rep.mats[a].rows),
               *rows.vectors, *cols.vectors]
    return ((rep.I, rep.F, [rep.mats[a].rows for a in rep.alphabet],
             rows.words, [tuple(v) for v in rows.vectors],
             cols.words, [tuple(v) for v in cols.vectors]),
            [x for v in vectors for x in v])


def assert_matches_oracle(rep):
    got, numbers = fingerprint(reduce_minimize(rep))
    want, _ = fingerprint(oracle_reduce_minimize(rep))
    assert got == want
    assert all(is_exact_entry(x) for x in numbers)


AB = Alphabet(["a", "b"])


@pytest.mark.parametrize("name", ["wa", "signed", "product_counts", "itimesj"])
def test_fixtures_and_residual_differences_match_oracle(name, request):
    f = request.getfixturevalue(name)
    assert_matches_oracle(f.to_linrep())
    for u in (("a",), ("a", "a"), tuple(f.alphabet)[-1:]):
        assert_matches_oracle(f.residual(u).sub(f).to_linrep())


def test_twelve_term_function_matches_oracle():
    rep = twelve_term_function().to_linrep()
    assert rep.dim == 57
    assert_matches_oracle(rep)


def random_rep(rng, rational):
    n = rng.randint(1, 6)

    def entry():
        x = rng.choice([0, 0, 0, 1, 1, -1, 2, -3])
        return Fraction(x, rng.randint(1, 4)) if rational else x

    letters = Alphabet(["a", "b"][:rng.randint(1, 2)])
    return LinRep(letters, [entry() for _ in range(n)],
                  {a: [[entry() for _ in range(n)] for _ in range(n)] for a in letters},
                  [entry() for _ in range(n)])


@pytest.mark.parametrize("rational", [False, True])
def test_random_representations_match_oracle(rational):
    rng = random.Random(13 + rational)
    for _ in range(40):
        rep = random_rep(rng, rational)
        assert_matches_oracle(rep)
        assert_matches_oracle(rep.sub(rep.scale(Fraction(1, 2))).add(rep))


def test_conjugated_count_matches_oracle():
    """|w|_a after a rational change of basis, so that the inserted vectors
    carry denominators: I P^-1, P mu P^-1, P F with P = 1 + N, N strictly
    upper triangular, P^-1 = sum_k (-N)^k."""
    rep = count_a(AB).to_linrep()
    n = rep.dim
    nil = QMat([[Fraction(1, i + j + 1) if j > i else 0 for j in range(n)] for i in range(n)])
    p = QMat.identity(n) + nil
    p_inv = QMat.zero(n, n)
    for k in range(n):
        p_inv = p_inv + nil.scale(-1).power(k)
    assert p * p_inv == QMat.identity(n)
    conj = LinRep(rep.alphabet, p_inv.vecmat(rep.I),
                  {a: p * rep.mats[a] * p_inv for a in rep.alphabet}, p.matvec(rep.F))
    for w in [(), ("a",), ("b", "a"), ("a", "b", "a")]:
        assert conj.eval(w) == rep.eval(w)
    assert_matches_oracle(conj)
    assert_matches_oracle(signed_length(Alphabet(["a"])).to_linrep().scale(Fraction(2, 3)))
