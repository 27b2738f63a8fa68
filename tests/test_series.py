"""Linear representations: evaluation, combinators, minimization,
equivalence, spectra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_cauchy, brute_hadamard, brute_star, gauss_rank, words_up_to
from zpoly.exact import QMat
from zpoly.lang import Alphabet, compile_regex
from zpoly.series import (LinRep, distinguishing_word, equivalent, indicator,
                          minimize, reduce_minimize, spectrum_probe)

AB = Alphabet(["a", "b"])
A1 = Alphabet(["a"])


def length_rep(alphabet):
    """|w| as a 2-dimensional representation."""
    mats = {a: QMat([[1, 1], [0, 1]]) for a in alphabet}
    return LinRep(alphabet, (1, 0), mats, (0, 1))


def signed_length_rep():
    """(-1)^{|w|} |w| over {a}."""
    return LinRep(A1, (1, 0), {"a": QMat([[-1, -1], [0, -1]])}, (0, 1))


def test_indicator():
    dfa = compile_regex("a(a|b)*b", AB)
    rep = indicator(dfa)
    for w in words_up_to(["a", "b"], 5):
        assert rep.eval(w) == (1 if dfa.accepts(w) else 0)


def test_eval_length():
    rep = length_rep(AB)
    for w in words_up_to(["a", "b"], 4):
        assert rep.eval(w) == len(w)


def test_add_sub_scale():
    f = length_rep(AB)
    g = indicator(compile_regex("(a|b)*a", AB))
    h = f.add(g.scale(-3)).sub(f)
    for w in words_up_to(["a", "b"], 4):
        assert h.eval(w) == -3 * g.eval(w)


def test_cauchy_vs_brute():
    f = indicator(compile_regex("(a|b)*a", AB))
    g = length_rep(AB)
    prod = f.cauchy(g)
    for w in words_up_to(["a", "b"], 5):
        assert prod.eval(w) == brute_cauchy(f.eval, g.eval, w)


def test_hadamard_vs_brute():
    f = length_rep(AB)
    g = indicator(compile_regex("a(a|b)*", AB))
    prod = f.hadamard(g)
    for w in words_up_to(["a", "b"], 5):
        assert prod.eval(w) == brute_hadamard(f.eval, g.eval, w)


def test_star_vs_brute():
    f = indicator(compile_regex("a(a|b)*", AB)).scale(2)
    assert f.eval(()) == 0
    s = f.star()
    for w in words_up_to(["a", "b"], 5):
        assert s.eval(w) == brute_star(f.eval, w)


def test_star_geometric_closed_form():
    # (-3 * 1_{A+})* gives 1, then -3 * (-2)^{n-1}
    f = indicator(compile_regex("a*a", A1)).scale(-3)
    s = f.star()
    vals = [s.eval(("a",) * n) for n in range(6)]
    assert vals == [1, -3, 6, -12, 24, -48]


def test_star_requires_zero_at_epsilon():
    f = indicator(compile_regex("a*", A1))
    with pytest.raises(ValueError):
        f.star()


def test_minimize_length():
    rep = length_rep(AB)
    padded = rep.add(rep.sub(rep))  # dimension 6, same series
    assert padded.dim == 6
    small = minimize(padded)
    assert small.dim == 2
    for w in words_up_to(["a", "b"], 5):
        assert small.eval(w) == len(w)


def test_minimize_zero():
    rep = length_rep(AB)
    assert minimize(rep.sub(rep)).dim == 0
    assert minimize(rep.sub(rep)).eval(("a", "b")) == 0


def test_reduce_minimize_bases():
    rep = signed_length_rep()
    small, rows, cols = reduce_minimize(rep)
    assert small.dim == 2
    assert len(rows.words) == 2 and len(cols.words) == 2
    # basis words index a full-rank block of the Hankel matrix
    h = [[rep.eval(u + v) for v in cols.words] for u in rows.words]
    assert gauss_rank(h) == 2


def test_equivalent_and_distinguishing():
    f = length_rep(AB)
    g = minimize(f)
    assert equivalent(f, g)
    assert distinguishing_word(f, g) is None
    h = f.add(indicator(compile_regex("abab", AB)))
    assert not equivalent(f, h)
    w = distinguishing_word(f, h)
    assert w is not None and f.eval(w) != h.eval(w)


def test_json_round_trip():
    f = signed_length_rep()
    g = LinRep.from_json(f.to_json())
    for n in range(6):
        assert g.eval(("a",) * n) == f.eval(("a",) * n)


def test_spectrum_signed_length():
    rep = minimize(signed_length_rep())
    assert spectrum_probe(rep, "zero_union_unity").ok
    report = spectrum_probe(rep, "zero_one")
    assert not report.ok and report.violations


def test_spectrum_exponential_fails():
    rep = LinRep(A1, (1,), {"a": QMat([[2]])}, (1,))
    report = spectrum_probe(rep, "zero_union_unity")
    assert not report.ok


def test_spectrum_star_free_indicator():
    rep = minimize(indicator(compile_regex("a(a|b)*b", AB)))
    assert spectrum_probe(rep, "zero_one").ok


def test_spectrum_probe_rejects_empty_evidence():
    rep = minimize(signed_length_rep())
    with pytest.raises(ValueError):
        spectrum_probe(rep, "zero_one", length_bound=-1)
    with pytest.raises(ValueError):
        spectrum_probe(rep, "zero_one", length_bound=9, sample_count=0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["a", "b"]), max_size=5),
       st.lists(st.sampled_from(["a", "b"]), max_size=5))
def test_hankel_property_of_minimal(u, v):
    """Minimization preserves every value f(uv)."""
    f = length_rep(AB).hadamard(indicator(compile_regex("(a|b)*b", AB)))
    g = minimize(f)
    w = tuple(u) + tuple(v)
    assert g.eval(w) == f.eval(w)
