"""Differential tests of the spectrum kernel.

The oracle is the original path: every word matrix built from the identity
by `LinRep.word_matrix`, and its characteristic polynomial by the
Faddeev-LeVerrier recurrence over Fraction (`conftest.char_poly`).  The
library scales the letter matrices to integers once, shares prefix
products between words, and runs the recurrence on integers.  The
characteristic polynomial is unique, so both must give exactly the same
polynomials and the same reports.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import char_poly as oracle_char_poly
from conftest import lyndon_root as oracle_lyndon_root
from conftest import twelve_term_function
from zpoly import series
from zpoly.cplc import indicator_cplc
from zpoly.exact import QMat, char_poly, classify_roots, common_denominator, poly_text
from zpoly.lang import Alphabet, compile_regex
from zpoly.series import LinRep, SpectrumReport, lyndon_root, minimize, spectrum_probe

MODES = ("zero_one", "zero_union_unity")

# ---------------------------------------------------------------------------
# char_poly


def entries(rational):
    ints = st.integers(-6, 6)
    if not rational:
        return ints
    return st.builds(Fraction, ints, st.integers(1, 5))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 8))
    entry = entries(draw(st.booleans()))
    return QMat([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=120, deadline=None)
@given(square_matrices())
def test_char_poly_matches_oracle(m):
    assert char_poly(m) == oracle_char_poly(m)


def test_char_poly_of_conjugated_matrix():
    """P m P^-1 with a rational P has the polynomial of m, and both paths
    agree on it although its entries carry denominators."""
    rng = random.Random(7)
    for n in range(1, 9):
        m = QMat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        nil = QMat([[Fraction(rng.randint(-2, 2), rng.randint(1, 4)) if j > i else 0
                     for j in range(n)] for i in range(n)])
        p = QMat.identity(n) + nil
        p_inv = QMat.zero(n, n)
        for k in range(n):
            p_inv = p_inv + nil.scale(-1).power(k)
        assert p * p_inv == QMat.identity(n)
        conj = p * m * p_inv
        assert char_poly(conj) == oracle_char_poly(conj) == char_poly(m)


def test_char_poly_edge_cases():
    assert char_poly(QMat([])) == oracle_char_poly(QMat([]))
    for m in ([[Fraction(1, 2)]], [[0, 0], [0, 0]], [[Fraction(1, 3), 2], [Fraction(-5, 6), 7]]):
        assert char_poly(QMat(m)) == oracle_char_poly(QMat(m))
    with pytest.raises(ValueError):
        char_poly(QMat([[1, 2]]))


# ---------------------------------------------------------------------------
# spectrum_probe


def oracle_words(rep, length_bound=4, sample_count=200, seed=0):
    """The words the original probe checked, recursively enumerated."""
    letters = list(rep.alphabet.letters)
    total = sum(len(letters) ** k for k in range(length_bound + 1))
    words = []
    if total <= sample_count:
        def gen(prefix, k):
            words.append(tuple(prefix))
            if k == 0:
                return
            for a in letters:
                gen(prefix + [a], k - 1)
        gen([], length_bound)
    else:
        rng = random.Random(seed)
        for _ in range(sample_count):
            k = rng.randint(1, length_bound)
            words.append(tuple(rng.choice(letters) for _ in range(k)))
    return sorted(set(words))


def oracle_report(rep, mode, words, polys):
    """The original report; `polys` caches the oracle polynomial of each
    word across modes and word sets."""
    violations = []
    for w in words:
        if w not in polys:
            polys[w] = oracle_char_poly(rep.word_matrix(w))
        if not classify_roots(polys[w], mode):
            violations.append((w, poly_text(polys[w])))
    return SpectrumReport(not violations, mode, len(words), violations)


def assert_reports_match(rep):
    polys = {}
    for kwargs in ({}, {"length_bound": 9, "sample_count": 50}):
        words = oracle_words(rep, **kwargs)
        for mode in MODES:
            got = spectrum_probe(rep, mode, **kwargs)
            assert got == oracle_report(rep, mode, words, polys)


@pytest.mark.parametrize("name", ["wa", "signed", "product_counts", "itimesj"])
def test_fixture_reports_match_oracle(name, request):
    rep = minimize(request.getfixturevalue(name).to_linrep())
    assert_reports_match(rep)


def exponential_rep():
    """Letter matrices with denominators (d > 1) whose word matrices have
    eigenvalues such as 2 and 1/2, so that reports list violations."""
    return LinRep(Alphabet(["a", "b"]), [1, Fraction(1, 2)],
                  {"a": [[2, Fraction(1, 3)], [0, Fraction(1, 2)]],
                   "b": [[Fraction(2, 3), 0], [Fraction(-1, 5), 1]]}, [1, 1])


@pytest.mark.parametrize("sample_count", [1, 2, 3, 6, 7, 8])
def test_exhaustive_or_sampled_at_the_budget(sample_count):
    """Seven words have length <= 2 over {a, b}: a budget of 7 or more checks
    them all, a smaller one draws a sample."""
    rep = exponential_rep()
    words = oracle_words(rep, 2, sample_count, 3)
    for mode in MODES:
        got = spectrum_probe(rep, mode, length_bound=2, sample_count=sample_count, seed=3)
        assert got == oracle_report(rep, mode, words, {})
        assert (got.checked == 7) == (sample_count >= 7)


def test_twelve_term_reports_match_oracle():
    rep = minimize(twelve_term_function().to_linrep())
    assert rep.dim == 14
    assert_reports_match(rep)


def test_rational_and_exponential_reports_match_oracle():
    rep = exponential_rep()
    for mode in MODES:
        report = spectrum_probe(rep, mode)
        assert not report.ok and report.violations
    assert_reports_match(rep)


def scaled_back_report(rep, mode, words):
    """The report as the probe computed it when every integer prefix
    product A_w was scaled into Fractions by 1/d^|w| before `char_poly`."""
    letters = list(rep.alphabet.letters)
    d = common_denominator(x for a in letters for r in rep.mats[a].rows for x in r)
    violations = []
    for w in words:
        a_w = QMat.identity(rep.dim)
        for a in w:
            a_w = a_w * rep.mats[a].scale(d)
        p = char_poly(a_w.scale(Fraction(1, d ** len(w))))
        if not classify_roots(p, mode):
            violations.append((w, poly_text(p)))
    return SpectrumReport(not violations, mode, len(words), violations)


@st.composite
def conjugated_reps(draw):
    """P mu P^-1 for small integer letter matrices mu and a rational unit
    upper triangular P: entries with denominators, integral spectra."""
    n = draw(st.integers(1, 4))
    ints = st.integers(-2, 2)
    nil = QMat([[Fraction(draw(ints), draw(st.integers(1, 4))) if j > i else 0
                 for j in range(n)] for i in range(n)])
    p = QMat.identity(n) + nil
    p_inv = QMat.zero(n, n)
    for k in range(n):
        p_inv = p_inv + nil.scale(-1).power(k)
    mats = {a: p * QMat([[draw(ints) for _ in range(n)] for _ in range(n)]) * p_inv
            for a in ("a", "b")}
    return LinRep(Alphabet(["a", "b"]), [1] * n, mats, [1] * n)


@settings(max_examples=60, deadline=None)
@given(conjugated_reps(), st.sampled_from(MODES))
def test_reports_match_scaled_back_char_poly(rep, mode):
    """Dividing the coefficients of det(X - A_w) by powers of d^|w| gives
    the reports of scaling A_w back into Fractions first."""
    for kwargs in ({"length_bound": 3}, {"length_bound": 6, "sample_count": 20}):
        words = oracle_words(rep, **kwargs)
        assert spectrum_probe(rep, mode, **kwargs) == scaled_back_report(rep, mode, words)


# ---------------------------------------------------------------------------
# one characteristic polynomial per Lyndon root


@st.composite
def root_words(draw):
    """Words up to length 60 over 1-3 letters, many of them rotated powers."""
    letters = "abc"[:draw(st.integers(1, 3))]
    u = draw(st.lists(st.sampled_from(letters), max_size=20))
    k = draw(st.integers(1, 58 // max(len(u), 1)))
    w = u * k + draw(st.lists(st.sampled_from(letters), max_size=2 if draw(st.booleans()) else 0))
    i = draw(st.integers(0, len(w)))
    return tuple(w[i:] + w[:i])


@settings(max_examples=300, deadline=None)
@given(root_words())
def test_lyndon_root_matches_oracle(w):
    r, e = lyndon_root(w)
    assert (r, e) == oracle_lyndon_root(w)
    assert len(r) * e == len(w)


def count_char_polys(monkeypatch):
    calls = []
    monkeypatch.setattr(series, "char_poly", lambda m: calls.append(m) or char_poly(m))
    return calls


def test_one_char_poly_per_lyndon_root(monkeypatch):
    """The 31 words of length <= 4 over {a, b} have 9 Lyndon roots: the
    empty word and a, b, ab, aab, abb, aaab, aabb, abbb."""
    rep = minimize(twelve_term_function().to_linrep())
    calls = count_char_polys(monkeypatch)
    report = spectrum_probe(rep, "zero_union_unity")
    assert report.ok and report.checked == 31
    assert len(calls) <= 9


def test_one_letter_probe_reads_two_roots(monkeypatch):
    rep = minimize(indicator_cplc(compile_regex("a*", Alphabet(["a"]))).to_linrep())
    calls = count_char_polys(monkeypatch)
    report = spectrum_probe(rep, "zero_union_unity", length_bound=1500, sample_count=5000)
    assert report.ok and report.checked == 1501
    assert len(calls) <= 2
