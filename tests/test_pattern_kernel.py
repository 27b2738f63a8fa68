"""Differential tests of the pattern-polynomial kernel.

The oracle below is the original evaluation path: every family value is
computed from scratch with rational matrix powers, and the polynomial is
fitted by tensor-Lagrange interpolation with MPoly products, then checked
with MPoly.eval on the shifted grid.  The library instead steps integer
vectors through the grid and fits Newton forward differences; both must
give exactly the same polynomials and verdicts.

The library also fits each distinct family of matrices once per question
and reads the fit back for every later pattern of that family; the last
section checks this against fresh fits of every pattern.
"""

import itertools
import math
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_a, signed_length
from zpoly import analysis, mso, series
from zpoly.analysis import (Analysis, PatternVerificationError, SearchBudget, growth_degree,
                            pattern_polynomial, ultimate_poly_check)
from zpoly.cplc import (Cplc, PumpingPattern, expression_to_cplc, indicator_cplc,
                        parse_expression)
from zpoly.exact import MPoly, QMat, newton_degree, newton_to_mpoly, simplex_points
from zpoly.forests import ForestNode, extract_patterns
from zpoly.lang import Alphabet, compile_regex

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import workloads  # noqa: E402  (the benchmark's regex pool)

# ---------------------------------------------------------------------------
# the oracle


def oracle_interpolate(arity, d, x0, value_at):
    nodes = list(range(x0, x0 + d + 1))
    basis = []
    for j, xj in enumerate(nodes):
        p = MPoly.const(1, 1)
        for m, xm in enumerate(nodes):
            if m != j:
                p = p * MPoly(1, {(0,): Fraction(-xm, 1) / (xj - xm), (1,): Fraction(1, xj - xm)})
        basis.append(p)
    if arity == 0:
        return MPoly.const(0, value_at(()))
    result = MPoly(arity)
    for idx in itertools.product(range(d + 1), repeat=arity):
        val = Fraction(value_at(tuple(nodes[i] for i in idx)))
        if val == 0:
            continue
        mono = MPoly.const(arity, val)
        for var, i in enumerate(idx):
            mono = mono * MPoly(arity, {tuple(k if v == var else 0 for v in range(arity)): c
                                        for (k,), c in basis[i].terms.items()})
        result = result + mono
    return result


def oracle_family_value(rep, pattern, exponents, cache):
    def apply(v, word):
        for a in word:
            v = rep.mats[a].vecmat(v)
        return v

    v = apply(rep.I, pattern.alphas[0])
    for w, e, alpha in zip(pattern.pumps, exponents, pattern.alphas[1:]):
        if (w, 1) not in cache:
            cache[(w, 1)] = rep.word_matrix(w)
        if (w, e) not in cache:
            cache[(w, e)] = cache[(w, 1)].power(e)
        v = apply(cache[(w, e)].vecmat(v), alpha)
    return sum(x * y for x, y in zip(v, rep.F))


def oracle_pattern_polynomial(f, pattern, rep, scale=1):
    k, ell, cache = f.level, pattern.size, {}

    def value_at(point):
        return oracle_family_value(rep, pattern, tuple(scale * x for x in point), cache)

    x0 = 2 * (k + 1)
    for _attempt in range(2):
        poly = oracle_interpolate(ell, k, x0, value_at)
        if all(poly.eval(p) == value_at(p)
               for p in itertools.product(range(x0 + k + 1, x0 + 2 * k + 2), repeat=ell)):
            return poly
        x0 *= 2
    raise PatternVerificationError("family %r did not stabilize" % (pattern,))


def test_oracle_interpolation_matches_library():
    from zpoly.exact import interpolate_grid
    rng = random.Random(3)
    for _ in range(30):
        arity, d = rng.randint(0, 3), rng.randint(0, 3)
        values = {}

        def value_at(point):
            return values.setdefault(point, Fraction(rng.randint(-20, 20), rng.randint(1, 3)))

        assert interpolate_grid(arity, d, 4, value_at) == oracle_interpolate(arity, d, 4, value_at)


# ---------------------------------------------------------------------------
# every pattern growth_degree fits


def fitted_patterns(f, monkeypatch):
    """Run growth_degree on f; return its verdict and each (pattern, MPoly)
    the kernel fitted, in order."""
    seen = []
    fit = analysis._Family.fit

    def recording_fit(self, pattern, k):
        x0, coeffs = fit(self, pattern, k)
        seen.append((pattern, newton_to_mpoly(coeffs, pattern.size, k, x0),
                     newton_degree(coeffs, pattern.size, k)))
        return x0, coeffs

    with monkeypatch.context() as m:
        m.setattr(analysis._Family, "fit", recording_fit)
        verdict = growth_degree(f)
    return verdict, seen


def assert_matches_oracle(f, fitted):
    rep = series.minimize(f.to_linrep())
    for pattern, poly, degree in fitted:
        want = oracle_pattern_polynomial(f, pattern, rep)
        assert poly == want, pattern
        assert degree == want.total_degree()


@pytest.mark.parametrize("name", ["wa", "signed", "product_counts", "itimesj"])
def test_fixture_patterns_match_oracle(name, request, monkeypatch):
    f = request.getfixturevalue(name)
    verdict, fitted = fitted_patterns(f, monkeypatch)
    assert len(fitted) == verdict.patterns_tried > 0
    assert_matches_oracle(f, fitted)


def test_level3_patterns_match_oracle(monkeypatch):
    f = build(LEVEL3)
    verdict, fitted = fitted_patterns(f, monkeypatch)
    assert verdict.patterns_tried == len(fitted) == 163
    sample = random.Random(2).sample(fitted, 8) + [fitted[-1]]   # the witness last
    assert_matches_oracle(f, sample)


# ---------------------------------------------------------------------------
# scaled exponents, non-polynomial families and rational representations


def scaled_cases():
    ab, a1 = Alphabet(["a", "b"]), Alphabet(["a"])
    from conftest import _wa_times_wb
    return [
        (signed_length(a1), [PumpingPattern(((), ()), (("a",),)),
                             PumpingPattern((("a",), ()), (("a", "a"),))]),
        (count_a(ab), [PumpingPattern(((), ("b",)), (("a",),)),
                       PumpingPattern((("b",), ("a",)), (("a", "b"),))]),
        (_wa_times_wb(ab), [PumpingPattern(((), ("b",), ()), (("a",), ("b", "a"))),
                            PumpingPattern((("b",), (), ("a",)), (("b",), ("a",)))]),
    ]


@pytest.mark.parametrize("step", [1, 2, 3])
def test_ultimate_poly_check_matches_oracle(step):
    outcomes = set()
    for f, patterns in scaled_cases():
        rep = series.minimize(f.to_linrep())
        for report in ultimate_poly_check(f, patterns, step=step, rep=rep):
            try:
                want = oracle_pattern_polynomial(f, report.pattern, rep, scale=step)
            except PatternVerificationError:
                want = None
            assert report.is_polynomial == (want is not None)
            assert report.poly == want
            outcomes.add(report.is_polynomial)
    # (-1)^n n is not polynomial along odd steps, and is along even ones
    assert outcomes == ({True, False} if step % 2 else {True})


def conjugate(rep):
    """P mu P^-1 with a rational P: the same series, non-integral entries."""
    n = rep.dim
    shear = QMat([[Fraction(int(i == j)) + (Fraction(1, 2) if j == i + 1 else 0)
                   for j in range(n)] for i in range(n)])
    unshear = QMat([[Fraction(int(i == j)) + (Fraction(-1, 2) ** (j - i) if j > i else 0)
                     for j in range(n)] for i in range(n)])
    diag = QMat([[Fraction(i + 2, 3) if i == j else 0 for j in range(n)] for i in range(n)])
    undiag = QMat([[Fraction(3, i + 2) if i == j else 0 for j in range(n)] for i in range(n)])
    p, p_inv = shear * diag, undiag * unshear
    assert p * p_inv == QMat.identity(n)
    return series.LinRep(rep.alphabet, p_inv.vecmat(rep.I),
                         {a: p * m * p_inv for a, m in rep.mats.items()}, p.matvec(rep.F))


def test_rational_representation_matches_oracle(product_counts, signed):
    for f, patterns in [(product_counts, [PumpingPattern(((), ("b",), ()), (("a",), ("b",))),
                                          PumpingPattern((("a",), (), ("b",)), (("a", "b"),
                                                                                ("b",)))]),
                        (signed, [PumpingPattern(((), ()), (("a", "a"),))])]:
        rep = series.minimize(f.to_linrep())
        rational = conjugate(rep)
        assert any(x.denominator != 1 for m in rational.mats.values()
                   for row in m.rows for x in row)
        for pattern in patterns:
            poly = pattern_polynomial(f, pattern, rep=rational)
            assert poly == oracle_pattern_polynomial(f, pattern, rational)
            assert poly == pattern_polynomial(f, pattern, rep=rep)
    with pytest.raises(PatternVerificationError):
        pattern_polynomial(signed, PumpingPattern(((), ()), (("a",),)),
                           rep=conjugate(series.minimize(signed.to_linrep())))


# ---------------------------------------------------------------------------
# growth verdicts on the benchmark's growth functions, as the oracle path
# computes them: (degree, budget_exhausted, patterns_tried, witness,
# witness_poly)

LEVEL3 = "alphabet = a b\ncount[x,y,z] a(x)&b(y)&a(z)&x<y&y<z\n"


def build(text):
    if text.split("\n", 1)[1].lstrip().startswith("count"):
        alphabet, variables, phi = mso.parse_count(text)
        return mso.count_to_cplc(phi, variables, alphabet)
    alphabet, tree = parse_expression(text)
    return expression_to_cplc(alphabet, tree)


GROWTH_VERDICTS = {
    'alphabet = a b\n1 * ind((a|b)*a(a|b)*b)\n':
        (0, False, 0, 'None', 'None'),
    'alphabet = a b\n1 * ind(bb(aa)*b)\n':
        (0, False, 0, 'None', 'None'),
    'alphabet = a b\ncount[x] a(x)\n':
        (1, False, 1, '_ (aa)^X _', '2*X1'),
    'alphabet = a b\ncount[x] b(x)\n':
        (1, False, 10, '_ (bb)^X _', '2*X1'),
    'alphabet = a\n1 * ind(a(aa)*) . ind(a(aa)*) + 1 * ind((aa)*) . ind((aa)*) - 1 * ind((aa)*) . ind(a(aa)*) - 1 * ind(a(aa)*) . ind((aa)*) + 1 * ind(a(aa)*) - 1 * ind((aa)*)\n':
        (1, False, 1, '_ (aa)^X _', '2*X1'),
    'alphabet = a\n-1 * ind(a(aa)*) . ind(a(aa)*) - 1 * ind((aa)*) . ind((aa)*) + 1 * ind((aa)*) . ind(a(aa)*) + 1 * ind(a(aa)*) . ind((aa)*) - 1 * ind(a(aa)*) + 1 * ind((aa)*)\n':
        (1, False, 1, '_ (aa)^X _', '-2*X1'),
    'alphabet = a b\ncount[x] (a(x) & exists y. ((y < x & b(y))))\n':
        (1, False, 7, 'b (aa)^X _', '2*X1'),
    'alphabet = a b c\ncount[x] (c(x) & exists y. ((y < x & a(y))))\n':
        (1, False, 37, 'a (cc)^X _', '2*X1'),
    'alphabet = a b\ncount[x, y] ((a(x) & a(y)) & x < y)\n':
        (2, False, 1, '_ (aa)^X _ (aa)^X _', '-1*X2 + -1*X1 + 2*X2^2 + 4*X1*X2 + 2*X1^2'),
    'alphabet = a b\ncount[x, y] ((b(x) & a(y)) & x < y)\n':
        (2, False, 55, '_ (aa)^X _ (ab)^X _', '-1/2*X2 + 1/2*X2^2'),
    'alphabet = a b c\ncount[x, y] ((a(x) & a(y)) & x < y)\n':
        (2, False, 1, '_ (aa)^X _ (aa)^X _', '-1*X2 + -1*X1 + 2*X2^2 + 4*X1*X2 + 2*X1^2'),
    'alphabet = a b c\ncount[x, y] ((b(x) & b(y)) & x < y)\n':
        (2, False, 65, '_ (aa)^X _ (bb)^X _', '-1*X2 + 2*X2^2'),
    'alphabet = a b c\ncount[x, y] ((c(x) & c(y)) & x < y)\n':
        (2, False, 129, '_ (aa)^X _ (cc)^X _', '-1*X2 + 2*X2^2'),
    'alphabet = a b c\ncount[x, y] ((a(x) & b(y)) & x < y)\n':
        (2, False, 65, '_ (aa)^X _ (bb)^X _', '4*X1*X2'),
    'alphabet = a b\ncount[x, y] ((a(x) & b(y)) & x < y)\n':
        (2, False, 28, '_ (aa)^X _ (bb)^X _', '4*X1*X2'),
    'alphabet = a b\ncount[x, y] ((b(x) & b(y)) & x < y)\n':
        (2, False, 28, '_ (aa)^X _ (bb)^X _', '-1*X2 + 2*X2^2'),
    'alphabet = a b\n1 * ind((a|b)*a) . ind((a|b)*b) . ind((a|b)*) + 1 * ind((a|b)*b) . ind((a|b)*a) . ind((a|b)*)\n':
        (2, False, 28, '_ (aa)^X _ (bb)^X _', '4*X1*X2'),
    'alphabet = a b\n-1 * ind((a|b)*a) . ind((a|b)*b) . ind((a|b)*) - 1 * ind((a|b)*b) . ind((a|b)*a) . ind((a|b)*)\n':
        (2, False, 28, '_ (aa)^X _ (bb)^X _', '-4*X1*X2'),
    'alphabet = a b\n1 * ind(a*a) . ind(a*b*b) . ind(b*)\n':
        (2, False, 28, '_ (aa)^X _ (bb)^X _', '4*X1*X2'),
    'alphabet = a b\n-1 * ind(a*a) . ind(a*b*b) . ind(b*)\n':
        (2, False, 28, '_ (aa)^X _ (bb)^X _', '-4*X1*X2'),
    'alphabet = a b\ncount[x,y,z] a(x)&b(y)&a(z)&x<y&y<z\n':
        (3, False, 163, '_ (aa)^X _ (aa)^X _ (ab)^X _', '-1/6*X3 + -1*X2*X3 + -1*X1*X3 + 1/6*X3^3 + X2*X3^2 + X1*X3^2'),
    'alphabet = a b\ncount[x,y] succ(x,y)&a(x)&a(y)\n':
        (1, True, 492, '_ (aa)^X _ (aa)^X _', '-1 + 2*X2 + 2*X1'),
}


@pytest.mark.parametrize("text", sorted(GROWTH_VERDICTS))
def test_growth_verdicts_unchanged(text):
    v = growth_degree(build(text))
    assert (v.degree, v.budget_exhausted, v.patterns_tried, repr(v.witness),
            repr(v.witness_poly)) == GROWTH_VERDICTS[text]


# ---------------------------------------------------------------------------
# one fit per family: a fit read back from the question's table is the fit
# of that pattern made afresh


def fresh_fits(m):
    """Make every `_Family.fit` fit its pattern afresh, in a table of its own
    that reads matrix powers from the question's table."""
    fit = analysis._Family.fit

    def fresh_fit(self, pattern, k):
        fresh = analysis._Family(self.rep)
        fresh.matrix = self.matrix
        return fit(fresh, pattern, k)

    m.setattr(analysis._Family, "fit", fresh_fit)


def outcome(v):
    return (v.degree, v.budget_exhausted, v.witness, v.witness_poly, v.patterns_tried)


def with_and_without_the_table(question):
    """question() run as is, then with fresh fits."""
    kept = question()
    with pytest.MonkeyPatch.context() as m:
        fresh_fits(m)
        return kept, question()


@pytest.mark.parametrize("text", sorted(GROWTH_VERDICTS))
def test_growth_corpus_reads_back_fresh_fits(text):
    f = build(text)
    kept, fresh = with_and_without_the_table(lambda: outcome(growth_degree(f)))
    assert kept == fresh
    assert (kept[0], kept[1], kept[4], repr(kept[2]), repr(kept[3])) == GROWTH_VERDICTS[text]


def combination(terms, alphabet=Alphabet(["a", "b"])):
    """sum of coef * ind(r0) . ind(r1) ... over (coef, regexes) terms."""
    total = Cplc(alphabet, [])
    for coef, regexes in terms:
        term = indicator_cplc(compile_regex(regexes[0], alphabet))
        for r in regexes[1:]:
            term = term.cauchy(indicator_cplc(compile_regex(r, alphabet)))
        total = total.add(term.scale(coef))
    return total


# 1-3 terms of 2 or 3 factors from the benchmark's pool: level 1 or 2
POOL_TERMS = st.lists(st.tuples(st.sampled_from([-2, -1, 1, 2]),
                                st.lists(st.sampled_from(workloads.POOL), min_size=2,
                                         max_size=3).map(tuple)),
                      min_size=1, max_size=3)
SHORT = st.lists(st.sampled_from("ab"), max_size=2).map(tuple)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(POOL_TERMS, st.lists(st.tuples(SHORT, SHORT), min_size=1, max_size=4))
def test_pool_combinations_read_back_fresh_fits(terms, pairs):
    """growth_degree of f, then of the differences f|u - f|v at their row
    vectors in f's representation, all in one analysis of f (one table),
    as the merges of a residual transducer read it.  The budget keeps a
    level-2 f below its level to 150 patterns."""
    f = combination(terms)

    def question():
        an = Analysis.of(f, SearchBudget(max_patterns=150))
        rep = an.rep
        row = lambda w: rep.word_matrix(w).vecmat(rep.I)
        out = [outcome(growth_degree(f, rep=an))]
        for u, v in pairs:
            h = f.residual(u).sub(f.residual(v))
            dv = [x - y for x, y in zip(row(u), row(v))]
            out.append(outcome(growth_degree(h, rep=an.at(dv))))
        return out

    kept, fresh = with_and_without_the_table(question)
    assert kept == fresh


def stepped(pattern, step):
    """The pattern with each pump word w repeated: w^step."""
    return PumpingPattern(pattern.alphas, tuple(w * step for w in pattern.pumps))


def test_a_fit_is_kept_per_level_and_step():
    """One family fitted at two levels k and at two steps (pump words w and
    w w) keeps four entries, each the fresh fit; a family that does not
    stabilize raises each time it is fitted."""
    a1 = Alphabet(["a"])
    for f, pattern in ((count_a(a1), PumpingPattern(((), ()), (("a",),))),
                       (signed_length(a1), PumpingPattern((("a",), ()), (("a", "a"),)))):
        rep = series.minimize(f.to_linrep())
        family = analysis._Family(rep)
        fits = []
        for k, step in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 1), (2, 2)]:
            fits.append(family.fit(stepped(pattern, step), k))
            assert fits[-1] == analysis._Family(rep).fit(stepped(pattern, step), k)
        assert all(fits[i] != fits[j] for i, j in itertools.combinations(range(4), 2))
    pattern = PumpingPattern(((), ()), (("a",),))   # (-1)^n n along a^n
    for _ in range(2):
        with pytest.raises(PatternVerificationError):
            family.fit(pattern, 1)
    assert family.fit(stepped(pattern, 2), 1) == analysis._Family(rep).fit(stepped(pattern, 2), 1)


def family_of(rep, pattern):
    """The matrices a fit of the pattern reads: I mu(alpha_0), mu(alpha_l) F,
    the pumps' and the inner connectors'."""
    mu = rep.word_matrix
    return (mu(pattern.alphas[0]).vecmat(rep.I), mu(pattern.alphas[-1]).matvec(rep.F),
            tuple(mu(w).rows for w in pattern.pumps + pattern.alphas[1:-1]))


def test_one_question_evaluates_each_family_once(monkeypatch):
    """On the level-3 formula, the grid is evaluated for each distinct
    family, not each pattern: 73 evaluations (1 per fit) for 163 patterns,
    where one fit per pattern made 163; a second question starts afresh."""
    f = build(LEVEL3)
    evaluated = []
    grid_values = analysis._Family.grid_values

    def counted(self, pattern, *args):
        evaluated.append(family_of(self.rep, pattern))
        return grid_values(self, pattern, *args)

    monkeypatch.setattr(analysis._Family, "grid_values", counted)
    verdict, fitted = fitted_patterns(f, monkeypatch)
    families = {family_of(Analysis.of(f).rep, p) for p, _, _ in fitted}
    assert len(fitted) == verdict.patterns_tried == 163
    assert len(evaluated) == len(families) == 73
    assert set(evaluated) == families
    del evaluated[:]
    an = Analysis.of(f)
    assert an.family.powers == {}
    assert outcome(growth_degree(f, rep=an)) == outcome(verdict)
    assert len(evaluated) == 73


# ---------------------------------------------------------------------------
# simplex fits: a fit reads the C(k + l, l) values of the simplex
# x0 + {|t| <= k}, once every pump N satisfies N^x0 (N - I)^e = 0


def simplex_fits(f):
    """growth_degree on f, recording (pattern, x0, coefficients) of each fit."""
    seen = []
    fit = analysis._Family.fit

    def recording_fit(self, pattern, k):
        x0, coeffs = fit(self, pattern, k)
        seen.append((pattern, x0, coeffs))
        return x0, coeffs

    with pytest.MonkeyPatch.context() as m:
        m.setattr(analysis._Family, "fit", recording_fit)
        growth_degree(f)
    return seen


def oracle_newton(poly, ell, k, x0):
    """Delta^i poly(x0) for i in {0..k}^l, by the difference formula."""
    grid = list(itertools.product(range(k + 1), repeat=ell))
    value = {t: poly.eval(tuple(x0 + s for s in t)) for t in grid}
    return {i: sum(value[t] * math.prod((-1) ** (a - b) * math.comb(a, b) for a, b in zip(i, t))
                   for t in itertools.product(*[range(a + 1) for a in i]))
            for i in grid}


def assert_simplex_fits_match_oracle(f):
    rep, k = series.minimize(f.to_linrep()), f.level
    fits = simplex_fits(f)
    for pattern, x0, coeffs in fits:
        want = oracle_newton(oracle_pattern_polynomial(f, pattern, rep), pattern.size, k, x0)
        assert dict(zip(simplex_points(pattern.size, k), coeffs)) == {
            i: c for i, c in want.items() if sum(i) <= k}, pattern
        assert all(c == 0 for i, c in want.items() if sum(i) > k), pattern
    return fits


@pytest.mark.parametrize("text", sorted(GROWTH_VERDICTS))
def test_corpus_simplex_fits_match_the_tensor_oracle(text):
    """Every fit of the corpus: the simplex coefficients are the oracle's
    for |i| <= k, and the oracle's are zero for |i| > k."""
    fits = assert_simplex_fits_match_oracle(build(text))
    assert len(fits) == GROWTH_VERDICTS[text][2]


@pytest.mark.parametrize("name", ["wa", "signed", "product_counts", "itimesj"])
def test_fixture_simplex_fits_match_the_tensor_oracle(name, request):
    assert assert_simplex_fits_match_oracle(request.getfixturevalue(name))


def test_a_fit_reads_only_the_simplex(monkeypatch):
    """On the level-3 formula each fit reads C(3 + 3, 3) = 20 family values,
    where the tensor grid and its check read 2 * 4^3 = 128."""
    f = build(LEVEL3)
    read = []
    grid_values = analysis._Family.grid_values

    def counted(self, pattern, start, d):
        values = grid_values(self, pattern, start, d)
        read.append((pattern.size, d, len(values)))
        return values

    monkeypatch.setattr(analysis._Family, "grid_values", counted)
    assert growth_degree(f).patterns_tried == 163
    assert {(ell, d) for ell, d, _ in read} == {(3, 3)}
    assert all(n == math.comb(ell + d, ell) == 20 for ell, d, n in read)


def settles_at(rep, w, x0):
    """N^x0 (N - I)^e = 0 for some e <= dim, N = mu(w), by matrix powers."""
    n = rep.word_matrix(w)
    minus = n - QMat.identity(rep.dim)
    p = n.power(x0)
    for _ in range(rep.dim):
        p = p * minus
    return p.is_zero()


@settings(max_examples=15, deadline=None, derandomize=True)
@given(POOL_TERMS)
def test_normalized_pool_pumps_settle_at_the_first_offset(terms):
    """Each normalized pump of a pool combination of level k, from the grid
    and from the forest harvest, settles at x0 = 2(k+1): no doubling."""
    f = combination(terms)
    an, k = Analysis.of(f), f.level
    harvest = itertools.islice(an.patterns._harvest(1), 300)
    pumps = {an.patterns.omega(w) for pattern in itertools.chain(
        analysis._exhaustive_patterns(f.alphabet, 1, SearchBudget(pump_len=3)), harvest)
        for w in pattern.pumps}
    for w in pumps:
        assert settles_at(an.rep, w, 2 * (k + 1)), w
        assert an.family.settles(w, 2 * (k + 1))


def forest_nodes(value):
    """The ForestNodes held in value, through tuples, lists, sets and dicts."""
    if isinstance(value, ForestNode):
        return [value]
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (tuple, list, set, frozenset)):
        return [node for item in value for node in forest_nodes(item)]
    return []


@settings(max_examples=15, deadline=None, derandomize=True)
@given(POOL_TERMS)
def test_a_shared_harvest_equals_a_fresh_one_and_keeps_no_forest(terms):
    """The harvests of 1, 2 and 3 pumps of a pool combination, read in turn
    through one question's cache of the sample words' forests, are the
    harvests made afresh; the cache keeps what a harvest reads, no tree."""
    f = combination(terms)
    patterns = Analysis.of(f, SearchBudget(tuple_cap=20)).patterns
    shared = [list(patterns._harvest(k)) for k in (1, 2, 3)]
    assert shared == [list(extract_patterns(f, patterns.sample_words, k, cap=20,
                                            morphism=patterns.morphism)) for k in (1, 2, 3)]
    assert len(patterns.forests) == len(patterns.sample_words)
    assert forest_nodes(patterns.forests) == []


def test_signed_length_settles_only_along_even_steps():
    """(-1)^n n along a^n: mu(a) has the eigenvalue -1, so no fit is
    certified at steps 1 and 3; at step 2 the family is 2X exactly."""
    f = signed_length(Alphabet(["a"]))
    assert [f.eval(("a",) * n) for n in range(5)] == [0, -1, 2, -3, 4]
    pattern = PumpingPattern(((), ()), (("a",),))
    reports = ultimate_poly_check(f, [pattern] * 3, step=1) + ultimate_poly_check(
        f, [pattern], step=2) + ultimate_poly_check(f, [pattern], step=3)
    assert [r.is_polynomial for r in reports] == [False] * 3 + [True, False]
    assert reports[3].poly == MPoly(1, {(1,): 2})
    with pytest.raises(PatternVerificationError):
        pattern_polynomial(f, pattern)


def test_a_long_nilpotent_block_settles_at_the_dimension():
    """ind(aaaaa) along a^X, unnormalized: mu(a) is nilpotent of index 6 in
    a representation of dimension 6, so no pump settles at x0 = 2 or 4 of
    level 0, and the family is 0 from X = 6 on, where it settles."""
    a1 = Alphabet(["a"])
    f = indicator_cplc(compile_regex("aaaaa", a1))
    pattern = PumpingPattern(((), ()), (("a",),))
    assert f.level == 0 and series.minimize(f.to_linrep()).dim == 6
    assert [f.eval(("a",) * n) for n in range(8)] == [0, 0, 0, 0, 0, 1, 0, 0]
    [report] = ultimate_poly_check(f, [pattern])
    assert report.is_polynomial and report.poly == MPoly(1)
    assert pattern_polynomial(f, pattern) == MPoly(1)
