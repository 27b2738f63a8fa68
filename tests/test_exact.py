"""Exact rational linear algebra and polynomial utilities."""

import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cyclotomic, euler_phi, gauss_rank, is_exact_entry,
                      oracle_classify_roots, rows_mul, rows_power)
from zpoly.exact import (MPoly, QMat, RowBasis, UPoly, char_poly, classify_roots,
                         interpolate_grid, poly_cauchy, power_sum)
from zpoly.lang import Alphabet
from zpoly.series import LinRep, reduce_minimize

AB = Alphabet(["a", "b"])


def test_qmat_algebra():
    a = QMat([[1, 2], [3, 4]])
    b = QMat([[0, 1], [1, 0]])
    assert a * b == QMat([[2, 1], [4, 3]])
    assert a + b - b == a
    assert a.scale(Fraction(1, 2)) == QMat([[Fraction(1, 2), 1],
                                            [Fraction(3, 2), 2]])
    assert a.matvec([1, 1]) == (3, 7)
    assert a.vecmat([1, 1]) == (4, 6)
    assert a.transpose().transpose() == a
    assert a.trace() == 5
    assert a.power(0) == QMat.identity(2)
    assert a.power(3) == a * a * a


def test_gauss_rank():
    assert gauss_rank([[1, 2], [2, 4]]) == 1
    assert gauss_rank([[1, 0], [0, 1]]) == 2
    assert gauss_rank([[0, 0]]) == 0


def test_row_basis_coords():
    basis = RowBasis(3)
    assert basis.insert([1, 0, 0])
    assert basis.insert([1, 1, 0])
    assert not basis.insert([2, 1, 0])
    assert basis.contains([5, 3, 0])
    assert not basis.contains([0, 0, 1])
    coords = basis.coords([3, 2, 0])
    assert coords is not None
    # reconstruct: 3*e1 + 2*(e1+e2) would be wrong; check the combination
    vecs = [(1, 0, 0), (1, 1, 0)]
    recon = [sum(c * v[i] for c, v in zip(coords, vecs)) for i in range(3)]
    assert recon == [3, 2, 0]


def _entries(draw_fractions):
    ints = st.integers(-4, 4)
    if not draw_fractions:
        return ints
    return st.builds(Fraction, ints, st.integers(1, 3))


@st.composite
def vector_families(draw):
    """A dimension, vectors to insert and probes, with entries either all
    ints or Fractions; probes include combinations of the inserted vectors."""
    dim = draw(st.integers(1, 5))
    entry = _entries(draw(st.booleans()))
    vec = st.lists(entry, min_size=dim, max_size=dim)
    vectors = draw(st.lists(vec, max_size=7))
    probes = draw(st.lists(vec, max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        coefs = draw(st.lists(entry, min_size=len(vectors), max_size=len(vectors)))
        probes.append([sum((c * v[j] for c, v in zip(coefs, vectors)), Fraction(0))
                       for j in range(dim)])
    return dim, vectors, probes


@settings(max_examples=150, deadline=None)
@given(vector_families())
def test_row_basis_against_rank_oracle(family):
    dim, vectors, probes = family
    basis = RowBasis(dim)
    seen = []
    for v in vectors:
        grows = gauss_rank(seen + [v]) > gauss_rank(seen)
        assert basis.insert(v) == grows
        seen.append(v)
        assert len(basis) == gauss_rank(seen)
    assert all(is_exact_entry(x) for bv in basis.vectors for x in bv)
    for v in probes + vectors:
        coords = basis.coords(v)
        inside = gauss_rank(list(basis.vectors) + [v]) == len(basis)
        assert (coords is not None) == inside == basis.contains(v)
        if coords is not None:
            assert len(coords) == len(basis)
            assert all(is_exact_entry(c) for c in coords)
            assert [sum(c * bv[j] for c, bv in zip(coords, basis.vectors))
                    for j in range(dim)] == list(v)


def test_upoly_eval():
    x = UPoly.x()
    p = (x - UPoly.const(1)) * (x + UPoly.const(2))
    assert p.eval(1) == 0 and p.eval(3) == 10


def test_char_poly_companion():
    # companion matrix of X^2 - X - 1 (Fibonacci)
    m = QMat([[0, 1], [1, 1]])
    p = char_poly(m)
    x = UPoly.x()
    assert p == x * x - x - UPoly.const(1)


def test_char_poly_diagonal():
    m = QMat([[2, 0], [0, 3]])
    x = UPoly.x()
    assert char_poly(m) == (x - UPoly.const(2)) * (x - UPoly.const(3))


def test_classify_roots():
    x = UPoly.x()
    one = UPoly.const(1)
    assert classify_roots(x * (x - one), "zero_one")
    assert classify_roots(x * x, "zero_one")
    assert not classify_roots(x + one, "zero_one")          # root -1
    assert classify_roots(x + one, "zero_union_unity")      # -1 is a unity root
    assert classify_roots((x * x + one) * x, "zero_union_unity")  # roots 0, +-i
    assert not classify_roots(x - UPoly.const(2), "zero_union_unity")
    assert not classify_roots(x * x - UPoly.const(2), "zero_union_unity")
    # a non-integer coefficient: neither X^a (X-1)^b nor X^a times cyclotomics
    assert not classify_roots(x - UPoly.const(Fraction(1, 2)), "zero_one")
    assert not classify_roots(x - UPoly.const(Fraction(1, 2)), "zero_union_unity")


# Phi_n for the n <= 60 with phi(n) <= 16
CYCLOTOMIC = [UPoly(cyclotomic(n)) for n in range(1, 61) if euler_phi(n) <= 16]
LEHMER = UPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])   # Mahler measure 1.176...


def root_corpus(rng, count):
    """X^a times products of cyclotomic polynomials of degree <= 16 (or of
    powers of X - 1), some with an extra factor X + 2 or X - 1/2, and
    random small monic integer polynomials."""
    x = UPoly.x()
    extras = [UPoly.const(1), x + UPoly.const(2), x - UPoly.const(Fraction(1, 2))]
    for _ in range(count):
        if rng.random() < 0.3:
            q = UPoly([rng.randint(-2, 2) for _ in range(rng.randint(0, 8))] + [1])
        else:
            pool = CYCLOTOMIC if rng.random() < 0.8 else CYCLOTOMIC[:1]
            q = UPoly.const(1)
            for _ in range(rng.randint(0, 6)):
                phi = rng.choice(pool)
                if q.degree + phi.degree <= 16:
                    q = q * phi
            q = q * rng.choice(extras)
        yield UPoly([0] * rng.randint(0, 2) + list(q.coeffs))


@pytest.mark.parametrize("mode", ["zero_one", "zero_union_unity"])
def test_classify_roots_against_cyclotomic_division(mode):
    polys = CYCLOTOMIC + [LEHMER] + list(root_corpus(random.Random(20), 1500))
    verdicts = [classify_roots(p, mode) for p in polys]
    assert verdicts == [oracle_classify_roots(p, mode) for p in polys]
    assert any(verdicts) and not all(verdicts)


def test_classify_roots_on_every_small_cyclotomic():
    """Each Phi_n, alone and as X Phi_n^2, has only roots of unity besides 0;
    a search of Phi_1, Phi_2, ... that stops at the first m with
    phi(m) > deg misses Phi_12, Phi_18, Phi_20, Phi_24 and Phi_30.
    Lehmer's polynomial has a root of modulus 1.176..."""
    for phi in CYCLOTOMIC:
        assert classify_roots(phi, "zero_union_unity")
        assert classify_roots(phi * phi * UPoly.x(), "zero_union_unity")
    assert not classify_roots(LEHMER, "zero_union_unity")
    assert not classify_roots(LEHMER * UPoly(cyclotomic(12)), "zero_union_unity")


def test_mpoly_eval_and_degree():
    x0 = MPoly.var(2, 0)
    x1 = MPoly.var(2, 1)
    p = x0 * x1 + x0.scale(3) - MPoly.const(2, 7)
    assert p.eval((2, 5)) == 2 * 5 + 6 - 7
    assert p.total_degree() == 2
    assert MPoly(2).total_degree() == -1


def _random_mpoly(rng, arity, deg):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple(rng.randint(0, deg) for _ in range(arity))
        terms[mono] = rng.randint(-9, 9)
    return MPoly(arity, terms)


def test_interpolation_round_trip_100_random():
    rng = random.Random(7)
    for _ in range(100):
        arity = rng.randint(1, 3)
        deg = rng.randint(0, 3)
        p = _random_mpoly(rng, arity, deg)
        q = interpolate_grid(arity, deg, 5, p.eval)
        assert q == p


def test_power_sum_closed_forms():
    # sum_{i=0}^{n} i^p
    for p in range(5):
        sp = power_sum(p)
        for n in range(8):
            assert sp.eval(n) == sum(i ** p for i in range(n + 1))


def test_poly_cauchy_vs_brute_100_random():
    """(p *c q)(X) = sum_{Y=0}^{X} p(Y) q(X - Y) in the convolved variable."""
    rng = random.Random(11)
    for _ in range(100):
        arity = rng.randint(1, 2)
        var = rng.randint(0, arity - 1)
        p = _random_mpoly(rng, arity, 2)
        q = _random_mpoly(rng, arity, 2)
        r = poly_cauchy(p, q, var)
        for _probe in range(4):
            point = [rng.randint(0, 8) for _ in range(arity)]
            want = 0
            for y in range(point[var] + 1):
                pp = list(point)
                pp[var] = y
                qq = list(point)
                qq[var] = point[var] - y
                want += p.eval(pp) * q.eval(qq)
            assert r.eval(point) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
       st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_upoly_ring_laws(a, b):
    p, q = UPoly(a), UPoly(b)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) - q == p
    for x in (-2, 0, 3):
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)


# ---------------------------------------------------------------------------
# the number normal form: ints where integral, Fractions otherwise


@st.composite
def square_matrices(draw, n=None):
    n = n or draw(st.integers(1, 4))
    entry = _entries(draw(st.booleans()))
    return QMat(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(square_matrices(n), square_matrices(n))),
       st.integers(0, 9))
def test_product_and_power_match_integer_rows_oracle(pair, e):
    a, b = pair
    assert (a * b).rows == rows_mul(a.rows, b.rows)
    assert a.power(e).rows == rows_power(a.rows, e)
    assert a.power(e) == functools.reduce(operator.mul, [a] * e, QMat.identity(a.nrows))
    for m in (a * b, a.power(e), a + b, a.scale(Fraction(3, 2)), a.transpose()):
        assert all(is_exact_entry(x) for r in m.rows for x in r)


@st.composite
def linreps(draw):
    """A linear representation over {a, b} of dimension 1-3, its entries all
    ints or all Fractions (some of them integral, such as 4/2)."""
    dim = draw(st.integers(1, 3))
    entry = _entries(draw(st.booleans()))
    vec = st.lists(entry, min_size=dim, max_size=dim)
    mats = {a: draw(st.lists(vec, min_size=dim, max_size=dim)) for a in AB}
    return LinRep(AB, draw(vec), mats, draw(vec))


def assert_normal_form(rep):
    numbers = [*rep.I, *rep.F, *(x for a in AB for r in rep.mats[a].rows for x in r)]
    assert all(is_exact_entry(x) for x in numbers)


@settings(max_examples=80, deadline=None)
@given(linreps(), linreps(), st.sampled_from([-2, Fraction(1, 2), Fraction(4, 2)]))
def test_series_operations_keep_the_normal_form(f, g, c):
    epsilon = LinRep(AB, (f.eval(()),), {a: [[0]] for a in AB}, (1,))
    reps = [f, f.add(g), f.scale(c), f.sub(g), f.cauchy(g), f.hadamard(g),
            f.sub(epsilon).star(), LinRep.from_json(f.to_json())]
    for rep in reps:
        assert_normal_form(rep)
        minimal, rows, cols = reduce_minimize(rep)
        assert_normal_form(minimal)
        assert all(is_exact_entry(x) for v in rows.vectors + cols.vectors for x in v)
    basis = RowBasis(f.dim)
    words = [(), ("a",), ("b",), ("a", "b"), ("b", "b")]
    probes = [f.word_matrix(w).vecmat(f.I) for w in words]
    for v in probes:
        basis.insert(v)
    assert all(is_exact_entry(x) for v in basis.vectors for x in v)
    for v in probes + [tuple(x + y for x, y in zip(probes[0], probes[-1]))]:
        coords = basis.coords(v)
        assert coords is not None and all(is_exact_entry(x) for x in coords)
