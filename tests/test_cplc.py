"""Cauchy combinations of regular-language indicators."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_cauchy, count_splits, fold_expression, words_up_to
from zpoly import lang, series
from zpoly.cplc import (Cplc, ExprError, PumpingPattern, _count_splits, constant_cplc,
                        expression_to_cplc, expression_to_linrep,
                        expression_uses_star, indicator_cplc,
                        parse_expression, product_monoid, zero_cplc)
from zpoly.lang import Alphabet, Dfa, compile_regex
from zpoly.series import minimize

AB = Alphabet(["a", "b"])
A1 = Alphabet(["a"])


def test_indicator_semantics():
    dfa = compile_regex("a(a|b)*b", AB)
    f = indicator_cplc(dfa)
    assert f.level == 0
    for w in words_up_to(["a", "b"], 5):
        assert f.eval(w) == (1 if dfa.accepts(w) else 0)


def test_constant_and_zero():
    c = constant_cplc(AB, 5)
    assert c.eval(()) == 5 and c.eval(("a", "b")) == 5
    z = zero_cplc(AB)
    assert z.is_zero_syntactic() and z.eval(("a",)) == 0 and z.level == 0


def test_cauchy_vs_brute(wa):
    g = indicator_cplc(compile_regex("b(a|b)*", AB))
    prod = wa.cauchy(g)
    assert prod.level == wa.level + 1
    for w in words_up_to(["a", "b"], 5):
        assert prod.eval(w) == brute_cauchy(wa.eval, g.eval, w)


def test_linear_structure(wa):
    g = indicator_cplc(compile_regex("(a|b)*", AB))
    h = wa.scale(3).sub(wa).sub(wa.add(wa))
    for w in words_up_to(["a", "b"], 4):
        assert h.eval(w) == 0
    assert minimize(h.to_linrep()).dim == 0


def test_count_a_semantics(wa):
    assert wa.level == 1
    for w in words_up_to(["a", "b"], 5):
        assert wa.eval(w) == sum(1 for x in w if x == "a")


def test_signed_length_values(signed):
    for n in range(8):
        assert signed.eval(("a",) * n) == (-1) ** n * n


def test_residual_matches_definition(wa, signed, itimesj):
    for f in (wa, signed, itimesj):
        letters = list(f.alphabet)
        for u in words_up_to(letters, 2, include_empty=False):
            r = f.residual(u)
            for w in words_up_to(letters, 4):
                assert r.eval(w) == f.eval(u + w), (f, u, w)


def test_residual_cancellation_drops_level(signed):
    """Residual differences cancel to their true level syntactically, which
    is what makes the residual-transducer merge tests terminate."""
    g = signed
    diff = g.residual(("a", "a")).sub(g)
    assert diff.level == 0
    for n in range(6):
        assert diff.eval(("a",) * n) == 2 * (-1) ** n


def test_to_linrep_agrees(wa, itimesj, signed):
    for f in (wa, itimesj, signed):
        rep = f.to_linrep()
        for w in words_up_to(list(f.alphabet), 5):
            assert rep.eval(w) == f.eval(w)


def test_normalization_merges_terms(wa):
    f = wa.add(wa)
    g = wa.scale(2)
    assert f == g


def test_json_round_trip(itimesj):
    g = Cplc.from_json(itimesj.to_json())
    assert g == itimesj
    for w in words_up_to(["a", "b"], 4):
        assert g.eval(w) == itimesj.eval(w)


def test_product_monoid(signed):
    monoid, morphism = product_monoid(signed)
    assert monoid.check_associative(morphism.letter_images.values())
    # the tracker separates epsilon from nonempty words
    x = morphism.image(("a", "a"))
    assert x != morphism.image(())
    assert morphism.image(("a",) * 4) == monoid.mul(x, x)


def test_pumping_pattern():
    p = PumpingPattern(((), ("b",), ()), (("a",), ("a", "a")))
    assert p.size == 2
    assert p.realize((2, 1)) == ("a", "a", "b", "a", "a")
    assert "X" in repr(p)
    with pytest.raises(ValueError):
        PumpingPattern(((),), (("a",),))  # arity mismatch


# ---------------------------------------------------------------------------
# expression surface syntax


def parse_build(text):
    alphabet, ast = parse_expression(text)
    return alphabet, ast


def test_expression_to_cplc():
    text = """alphabet = a b
2 * ind((a|b)*a) . ind((a|b)*) - 3
"""
    alphabet, ast = parse_expression(text)
    assert not expression_uses_star(ast)
    f = expression_to_cplc(alphabet, ast)
    for w in words_up_to(["a", "b"], 4):
        assert f.eval(w) == 2 * sum(1 for x in w if x == "a") - 3


def test_expression_negative_literal():
    text = "alphabet = a\n-ind(a*)\n"
    alphabet, ast = parse_expression(text)
    f = expression_to_cplc(alphabet, ast)
    assert f.eval(("a",)) == -1


def test_expression_star_goes_to_linrep():
    text = "alphabet = a\nstar(-3 * ind(a*a))\n"
    alphabet, ast = parse_expression(text)
    assert expression_uses_star(ast)
    with pytest.raises(ExprError):
        expression_to_cplc(alphabet, ast)
    rep = expression_to_linrep(alphabet, ast)
    assert [rep.eval(("a",) * n) for n in range(6)] == [1, -3, 6, -12, 24, -48]


def twelve_term_text():
    """The 12-term expression of `conftest.twelve_term_function` as text:
    24 `ind`s over 8 distinct regexes."""
    pool = ["(a|b)*a", "(a|b)*b", "a*", "b(a|b)*", "(ab)*", "(a|b)*ab(a|b)*",
            "(aa|b)*", "a(a|b)*b"]
    rng = random.Random(1)
    terms = []
    for i in range(12):
        x, y = rng.choice(pool), rng.choice(pool)
        c = 1 if i == 0 else (rng.randint(-2, 2) or 1)
        terms.append("%d * (ind(%s) . ind(%s))" % (c, x, y))
    return "alphabet = a b\n" + " + ".join(terms) + "\n"


def ind_texts(node):
    if node[0] == "ind":
        return [node[1]]
    return [t for child in node[1:] if isinstance(child, tuple) for t in ind_texts(child)]


@pytest.mark.parametrize("text", [twelve_term_text(),
                                  "alphabet = a b\nstar(ind(ab) + 2 * ind(aa*)) . ind(ab)"
                                  " - star(ind(aa*) . ind(ab))\n"])
def test_each_regex_compiles_once_per_fold(text, monkeypatch):
    """Each fold compiles every distinct `ind` text once, and builds what a
    fold compiling every `ind` afresh builds."""
    alphabet, ast = parse_expression(text)
    compiled = []
    compile_regex = lang.compile_regex
    monkeypatch.setattr(lang, "compile_regex",
                        lambda t, a: compiled.append(t) or compile_regex(t, a))
    folds = [(expression_to_linrep, series.indicator)]
    if not expression_uses_star(ast):
        folds.append((expression_to_cplc, indicator_cplc))
    for fold, indicator in folds:
        compiled.clear()
        got = fold(alphabet, ast)
        assert sorted(compiled) == sorted(set(ind_texts(ast)))
        assert got.to_json() == fold_expression(alphabet, ast, indicator).to_json()
    assert len(set(ind_texts(ast))) < len(ind_texts(ast))


@pytest.mark.parametrize("fold", [expression_to_cplc, expression_to_linrep])
def test_a_fold_leaves_no_cyclic_garbage(fold):
    """With the collector off, reference counting frees all that one fold
    built: a collection afterwards finds nothing unreachable."""
    alphabet, ast = parse_expression("alphabet = a b\n"
                                     "2 * ind((a|b)*a) . ind(b(a|b)*) - ind(a*)\n")
    gc.collect()
    gc.disable()
    try:
        fold(alphabet, ast)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_expression_errors():
    for bad in ["alphabet = a\nind(\n", "alphabet = a\n1 +\n", "ind(a)"]:
        with pytest.raises((ExprError, ValueError)):
            alphabet, ast = parse_expression(bad)
            expression_to_cplc(alphabet, ast)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["a", "b"]), max_size=6))
def test_cauchy_associativity(w):
    x = indicator_cplc(compile_regex("(a|b)*a", AB))
    y = indicator_cplc(compile_regex("b*", AB))
    z = indicator_cplc(compile_regex("(a|b)*", AB))
    w = tuple(w)
    assert x.cauchy(y).cauchy(z).eval(w) == x.cauchy(y.cauchy(z)).eval(w)


@st.composite
def dfas(draw):
    n = draw(st.integers(1, 4))
    states = st.integers(0, n - 1)
    delta = {a: draw(st.lists(states, min_size=n, max_size=n)) for a in AB}
    return Dfa(AB, n, 0, draw(st.sets(states)), delta)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.lists(dfas(), max_size=4)), max_size=4),
       st.lists(st.sampled_from(["a", "b"]), max_size=14))
def test_eval_matches_split_oracle(raw_terms, w):
    """Cplc.eval (one left-to-right run per factor) against restarting every
    factor DFA at every position, on normalized and raw factor lists."""
    w = tuple(w)
    f = Cplc(AB, raw_terms)
    assert f.eval(w) == sum(coef * count_splits(w, fs) for coef, fs in f.terms)
    for _, fs in raw_terms:
        assert _count_splits(w, tuple(fs)) == count_splits(w, tuple(fs))
