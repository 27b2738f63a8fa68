"""Growth degree, equivalence modulo growth, and ultimate-polynomial
diagnostics."""

import pytest

from conftest import words_up_to
from zpoly import forests
from zpoly.cplc import PumpingPattern, constant_cplc, indicator_cplc, product_monoid, zero_cplc
from zpoly.lang import Alphabet, FiniteMonoid, compile_regex
from zpoly.analysis import (Analysis, BudgetExhausted, SearchBudget,
                            _exhaustive_patterns, equiv_mod_k, growth_degree,
                            normalize_pattern, pattern_polynomial, ultimate_poly_check)

AB = Alphabet(["a", "b"])


# ---------------------------------------------------------------------------
# growth degree


def test_growth_of_zero():
    v = growth_degree(zero_cplc(AB))
    assert v.degree == -1 and not v.budget_exhausted


def test_growth_of_hidden_zero(wa):
    v = growth_degree(wa.sub(wa))
    assert v.degree == -1 and not v.budget_exhausted


FIVE_INDICATORS = ["a(a|b)*", "(a|b)*b", "(a|b)*a(a|b)*", "ab|ba", "b*"]


@pytest.mark.parametrize("regex", FIVE_INDICATORS)
def test_growth_of_indicators_is_zero(regex):
    f = indicator_cplc(compile_regex(regex, AB))
    v = growth_degree(f)
    assert v.degree == 0 and not v.budget_exhausted


def test_growth_of_count_a(wa):
    v = growth_degree(wa)
    assert v.degree == 1 and not v.budget_exhausted
    assert v.witness is not None and v.witness_poly.total_degree() == 1


def test_growth_of_signed_length(signed):
    v = growth_degree(signed)
    assert v.degree == 1 and not v.budget_exhausted


def test_growth_of_product_counts(product_counts):
    v = growth_degree(product_counts)
    assert v.degree == 2 and not v.budget_exhausted
    assert v.witness.size == 2


def test_growth_of_itimesj_needs_two_pumps(itimesj):
    v = growth_degree(itimesj)
    assert v.degree == 2 and not v.budget_exhausted
    assert v.witness.size == 2
    # no single-pump family reaches degree 2
    budget = SearchBudget()
    from zpoly import series
    rep = series.minimize(itimesj.to_linrep())
    for p in _exhaustive_patterns(AB, 1, budget):
        norm = normalize_pattern(itimesj, p)
        assert pattern_polynomial(itimesj, norm, rep=rep).total_degree() <= 1


def test_growth_witness_realizes(product_counts):
    v = growth_degree(product_counts)
    for point in [(4, 5), (7, 7)]:
        assert product_counts.eval(v.witness.realize(point)) == \
            v.witness_poly.eval(point)


# ---------------------------------------------------------------------------
# pattern sources


@pytest.mark.parametrize("cap", [0, 1, 3])
def test_max_patterns_caps_the_whole_search(product_counts, cap):
    """The cap counts grid and harvest patterns over every pump count."""
    v = growth_degree(product_counts, SearchBudget(max_patterns=cap))
    assert v.patterns_tried == cap and v.budget_exhausted


def test_max_patterns_zero_reads_no_pattern(wa, monkeypatch):
    calls = count_forests(monkeypatch)
    for budget in (SearchBudget(max_patterns=0), SearchBudget(pump_len=0, max_patterns=0)):
        v = growth_degree(wa, budget)
        assert (v.degree, v.budget_exhausted, v.patterns_tried) == (0, True, 0)
    assert calls == []


def count_forests(monkeypatch):
    """The sample words `forests.simon_forest` is called on from now on."""
    calls = []
    build = forests.simon_forest
    monkeypatch.setattr(forests, "simon_forest",
                        lambda mor, word: calls.append(word) or build(mor, word))
    return calls


def test_search_settled_by_the_grid_builds_no_forest(wa, monkeypatch):
    """|w|_a reaches its level on the exhaustive grid, so the search never
    reads the forest harvest."""
    calls = count_forests(monkeypatch)
    v = growth_degree(wa)
    assert v.degree == 1 and not v.budget_exhausted
    assert calls == []
    # with an empty grid the witness comes from the harvest, word by word
    v = growth_degree(wa, SearchBudget(pump_len=0))
    assert v.degree == 1 and not v.budget_exhausted
    assert 0 < len(calls) < 10


def test_omega_is_computed_once_per_monoid(product_counts, monkeypatch):
    calls = []
    period = FiniteMonoid.element_index_period
    monkeypatch.setattr(FiniteMonoid, "element_index_period",
                        lambda self, x: calls.append(x) or period(self, x))
    v = growth_degree(product_counts)
    assert v.patterns_tried > 10
    assert sorted(calls) == list(range(product_monoid(product_counts)[0].size))


# ---------------------------------------------------------------------------
# pattern polynomials and normalization


def test_pattern_polynomial_signed_length(signed):
    # along even pump steps the signed length is linear
    p = PumpingPattern(((), ()), (("a", "a"),))
    poly = pattern_polynomial(signed, p)
    assert poly.total_degree() == 1
    for n in range(3, 8):
        assert poly.eval((n,)) == signed.eval(("a",) * (2 * n))


def test_normalize_pattern_makes_pumps_idempotent(signed):
    p = PumpingPattern(((), ()), (("a",),))
    norm = normalize_pattern(signed, p)
    assert norm.pumps[0] == ("a", "a")
    again = normalize_pattern(signed, norm)
    assert again == norm


def test_ultimate_poly_check_step_sensitivity(signed):
    p = PumpingPattern(((), ()), (("a",),))
    r1, = ultimate_poly_check(signed, [p], step=1)
    assert not r1.is_polynomial and r1.poly is None
    r2, = ultimate_poly_check(signed, [p], step=2)
    assert r2.is_polynomial and r2.poly.total_degree() == 1


def test_ultimate_poly_check_plain_count(wa):
    p = PumpingPattern(((), ("b",)), (("a",),))
    r, = ultimate_poly_check(wa, [p], step=1)
    assert r.is_polynomial and r.poly.total_degree() == 1


# ---------------------------------------------------------------------------
# equivalence modulo growth


def test_equiv_mod_exact(wa):
    assert equiv_mod_k(wa, wa.scale(2).sub(wa), -1)
    assert not equiv_mod_k(wa, wa.scale(2), -1)


def test_equiv_mod_bounded(wa):
    g = wa.add(indicator_cplc(compile_regex("a(a|b)*", AB)))
    assert equiv_mod_k(wa, g, 0)       # difference is an indicator
    assert not equiv_mod_k(wa.scale(2), zero_cplc(AB), 0)  # linear difference
    assert equiv_mod_k(wa.scale(2), zero_cplc(AB), 1)


def test_equiv_mod_product(product_counts, wa):
    assert not equiv_mod_k(product_counts, zero_cplc(AB), 1)
    assert equiv_mod_k(product_counts, product_counts.add(wa), 1)


def test_analysis_at_a_difference_vector_answers_like_the_difference(product_counts):
    """Searches on h = f|u - f|v read f's analysis at the row vector of h
    and reach the verdicts of a search on h itself."""
    f = product_counts
    an = Analysis.of(f)

    def vector(word):
        v = an.rep.I
        for a in word:
            v = an.rep.mats[a].vecmat(v)
        return v

    for u, v in [(("a",), ("b",)), (("a", "b"), ("b", "a")), (("a",), ("a", "b"))]:
        g, h = f.residual(u), f.residual(v)
        view = an.at([x - y for x, y in zip(vector(u), vector(v))])
        assert growth_degree(g.sub(h), rep=view).degree == growth_degree(g.sub(h)).degree
        for k in range(-1, f.level + 1):
            assert equiv_mod_k(g, h, k, rep=view) == equiv_mod_k(g, h, k)


def test_an_analysis_brings_its_budget(wa):
    an = Analysis.of(wa, SearchBudget(max_patterns=0))
    assert growth_degree(wa, rep=an).patterns_tried == 0
    assert growth_degree(wa, SearchBudget(max_patterns=0), rep=an).patterns_tried == 0
    with pytest.raises(ValueError, match="differs from the analysis"):
        growth_degree(wa, SearchBudget(), rep=an)
    with pytest.raises(ValueError, match="differs from the analysis"):
        equiv_mod_k(wa, wa.scale(2), 0, SearchBudget(), rep=Analysis.of(wa.scale(-1), an.budget))

