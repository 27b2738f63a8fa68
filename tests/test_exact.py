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
                      oracle_classify_roots, poly_mul, rows_mul, rows_power)
from zpoly.exact import (MPoly, QMat, RowBasis, char_poly, classify_roots, interpolate_grid,
                         newton_coefficients, newton_to_mpoly, poly_cauchy, poly_text)
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


def test_char_poly_companion():
    # companion matrix of X^2 - X - 1 (Fibonacci)
    m = QMat([[0, 1], [1, 1]])
    assert char_poly(m) == (-1, -1, 1)
    assert poly_text(char_poly(m)) == "-1 + -1*X + X^2"


def test_char_poly_diagonal():
    m = QMat([[2, 0], [0, 3]])
    assert char_poly(m) == poly_mul((-2, 1), (-3, 1)) == (6, -5, 1)


def test_poly_text():
    assert poly_text((Fraction(3, 2), Fraction(-7, 2), 1)) == "3/2 + -7/2*X + X^2"
    assert poly_text((0, 1, 0, 2)) == "X + 2*X^3"
    assert poly_text(()) == poly_text((0, 0)) == "0"


def test_classify_roots():
    x, half = (0, 1), (Fraction(-1, 2), 1)
    assert classify_roots(poly_mul(x, (-1, 1)), "zero_one")
    assert classify_roots((0, 0, 1), "zero_one")
    assert not classify_roots((1, 1), "zero_one")          # root -1
    assert classify_roots((1, 1), "zero_union_unity")      # -1 is a unity root
    assert classify_roots((0, 1, 0, 1), "zero_union_unity")  # roots 0, +-i
    assert not classify_roots((-2, 1), "zero_union_unity")
    assert not classify_roots((-2, 0, 1), "zero_union_unity")
    # a non-integer coefficient: neither X^a (X-1)^b nor X^a times cyclotomics
    assert not classify_roots(half, "zero_one")
    assert not classify_roots(half, "zero_union_unity")
    for p in ((), (1, 2), (1, 0)):
        with pytest.raises(ValueError, match="monic"):
            classify_roots(p, "zero_one")


# Phi_n for the n <= 60 with phi(n) <= 16
CYCLOTOMIC = [cyclotomic(n) for n in range(1, 61) if euler_phi(n) <= 16]
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)   # Mahler measure 1.176...


def root_corpus(rng, count):
    """X^a times products of cyclotomic polynomials of degree <= 16 (or of
    powers of X - 1), some with an extra factor X + 2 or X - 1/2, and
    random small monic integer polynomials."""
    extras = [(1,), (2, 1), (Fraction(-1, 2), 1)]
    for _ in range(count):
        if rng.random() < 0.3:
            q = tuple([rng.randint(-2, 2) for _ in range(rng.randint(0, 8))] + [1])
        else:
            pool = CYCLOTOMIC if rng.random() < 0.8 else CYCLOTOMIC[:1]
            q = (1,)
            for _ in range(rng.randint(0, 6)):
                phi = rng.choice(pool)
                if len(q) + len(phi) - 2 <= 16:
                    q = poly_mul(q, phi)
            q = poly_mul(q, rng.choice(extras))
        yield (0,) * rng.randint(0, 2) + q


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
        assert classify_roots((0,) + poly_mul(phi, phi), "zero_union_unity")
    assert not classify_roots(LEHMER, "zero_union_unity")
    assert not classify_roots(poly_mul(LEHMER, cyclotomic(12)), "zero_union_unity")


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


@st.composite
def mpolys(draw, arity):
    """A polynomial of per-variable degree <= 2, its coefficients all ints or
    all Fractions (some of them integral, such as 4/2)."""
    entry = _entries(draw(st.booleans()))
    monos = st.tuples(*[st.integers(0, 2)] * arity)
    return MPoly(arity, draw(st.dictionaries(monos, entry, max_size=4)))


@settings(max_examples=80, deadline=None)
@given(square_matrices(), st.integers(1, 2).flatmap(lambda n: st.tuples(mpolys(n), mpolys(n))),
       st.integers(-3, 3))
def test_polynomials_keep_the_normal_form(m, pair, x0):
    """char_poly of an integer matrix is all ints; the coefficients of
    char_poly, of interpolation, of Newton forms and of Cauchy products
    are in the normal form."""
    p, q = pair
    if all(type(x) is int for r in m.rows for x in r):
        assert all(type(c) is int for c in char_poly(m))
    assert all(is_exact_entry(c) for c in char_poly(m))
    arity = p.arity
    values = [p.eval([x0 + i for i in t]) for t in itertools.product(range(5), repeat=arity)
              if sum(t) <= 4]
    fits = [interpolate_grid(arity, 2, x0, p.eval),
            newton_to_mpoly(newton_coefficients(values, arity, 4), arity, 4, x0),
            poly_cauchy(p, q, arity - 1), p * q, p + q, p.scale(Fraction(2, 3))]
    assert fits[0] == fits[1] == p
    for r in fits:
        assert all(is_exact_entry(c) for c in r.terms.values())
    assert is_exact_entry(p.eval([x0] * arity))
