"""Factorization forests, skeletons, and pattern extraction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpoly.forests import (ForestError, dependent_pairs, extract_patterns,
                           from_brackets, independent_leaf_bound, simon_forest,
                           skeleton, skeleton_analysis, to_brackets, to_dot,
                           validate)
from zpoly.lang import Alphabet, Dfa, FiniteMonoid, MonoidMorphism, transition_monoid


def trivial_morphism():
    m = FiniteMonoid(1, ((0,),), 0)
    return MonoidMorphism(m, Alphabet(["a"]), {"a": 0})


def sign_morphism():
    """{1, -1, 0} under multiplication; a -> -1, b -> 1, c -> 0."""
    vals = [1, -1, 0]
    idx = {v: i for i, v in enumerate(vals)}
    table = tuple(tuple(idx[vals[i] * vals[j]] for j in range(3))
                  for i in range(3))
    m = FiniteMonoid(3, table, 0)
    return MonoidMorphism(m, Alphabet(["a", "b", "c"]),
                          {"a": 1, "b": 0, "c": 2})


def z6_morphism():
    table = tuple(tuple((i + j) % 6 for j in range(6)) for i in range(6))
    m = FiniteMonoid(6, table, 0)
    return MonoidMorphism(m, Alphabet(["a", "b"]), {"a": 1, "b": 2})


def zero_x_morphism():
    """{1, x, 0} with x^2 = 0; a -> 1, b -> x."""
    table = ((0, 1, 2), (1, 2, 2), (2, 2, 2))
    return MonoidMorphism(FiniteMonoid(3, table, 0), Alphabet(["a", "b"]),
                          {"a": 0, "b": 1})


MORPHISMS = [trivial_morphism(), sign_morphism(), z6_morphism(), zero_x_morphism()]


def random_words(mor, count, max_len, seed):
    rng = random.Random(seed)
    letters = list(mor.alphabet)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_len)
        out.append(tuple(rng.choice(letters) for _ in range(n)))
    return out


def leaves_in_order(root):
    return [n for n in root.all_nodes() if n.is_leaf]


def check_forest(mor, word):
    root = simon_forest(mor, word)
    assert validate(root, mor, word)
    assert root.yield_word() == tuple(word)
    depth = root.depth()
    assert depth <= 3 * mor.monoid.size, (word, depth)
    return root


@pytest.mark.parametrize("mor", MORPHISMS,
                         ids=["trivial", "sign", "cyclic6", "zero_x"])
def test_forest_suite_500_words(mor):
    analysis_budget = 60  # full skeleton checks only on smaller forests
    for i, word in enumerate(random_words(mor, 500, 30, seed=13)):
        root = check_forest(mor, word)
        if i >= analysis_budget:
            continue
        info = skeleton_analysis(root)
        d = root.depth()
        # semantic invariant: the skeleton yield has the same image
        for node in root.all_nodes():
            ske = skeleton(node)
            ske_yield = tuple(leaf.letter for leaf in leaves_in_order(node)
                              if leaf.uid in ske)
            assert mor.image(ske_yield) == node.value
        # chain property: skeletons containing a fixed leaf are nested
        all_skeletons = [skeleton(n) for n in root.all_nodes()]
        for leaf in leaves_in_order(root):
            containing = [s for s in all_skeletons if leaf.uid in s]
            containing.sort(key=len)
            for small, big in zip(containing, containing[1:]):
                assert small <= big
        # dependency bound: a fixed leaf is depended on by few leaves
        bound = independent_leaf_bound(d)
        pairs = dependent_pairs(info)
        leaves = info.leaves()
        for x in leaves:
            assert sum(1 for (u, v) in pairs if u == x) <= bound


@st.composite
def dfa_morphisms(draw):
    """Transition monoids of random DFAs with 2-4 states on 2-3 letters."""
    n = draw(st.integers(2, 4))
    alphabet = Alphabet("abc"[:draw(st.integers(2, 3))])
    delta = {a: draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
             for a in alphabet}
    return transition_monoid(Dfa(alphabet, n, 0, [0], delta))[1]


@settings(max_examples=60, deadline=None)
@given(mor=st.one_of(dfa_morphisms(), st.just(zero_x_morphism())),
       data=st.data())
def test_forest_property_depth_bound(mor, data):
    """Every forest validates, spells the word and has depth <= 3|M|, also
    on words far longer than the recursion limit."""
    letters = list(mor.alphabet)
    word = data.draw(st.one_of(
        st.lists(st.sampled_from(letters), min_size=1, max_size=40),
        st.integers(1, 2000).flatmap(lambda n: st.randoms(use_true_random=False).map(
            lambda rng: [rng.choice(letters) for _ in range(n)]))))
    check_forest(mor, word)


def test_idempotent_nodes_have_equal_children():
    mor = z6_morphism()
    word = tuple("a" * 24)
    root = check_forest(mor, word)
    for node in root.all_nodes():
        if not node.is_leaf and len(node.children) >= 3:
            vals = {c.value for c in node.children}
            assert len(vals) == 1
            assert mor.monoid.is_idempotent(node.children[0].value)


def test_empty_word_rejected():
    with pytest.raises(ForestError):
        simon_forest(trivial_morphism(), ())


def test_brackets_round_trip():
    mor = sign_morphism()
    word = tuple("abcabba")
    root = simon_forest(mor, word)
    text = to_brackets(root)
    back = from_brackets(text, mor)
    assert validate(back, mor, word)
    assert to_brackets(back) == text


@pytest.mark.parametrize("text", ["", "<>", "<ab", "<ax>", "ab>", "<a<b>"])
def test_malformed_brackets_raise_forest_error(text):
    with pytest.raises(ForestError):
        from_brackets(text, sign_morphism())


def test_to_dot_mentions_all_leaves():
    mor = trivial_morphism()
    root = simon_forest(mor, ("a", "a", "a"))
    dot = to_dot(root)
    assert dot.startswith("digraph") and dot.count("label") >= 3


def test_extract_patterns_shape_and_consistency(itimesj):
    words = [tuple("ab" * 8)]
    patterns = list(extract_patterns(itimesj, words, 2, cap=50, seed=0))
    assert patterns
    for p in patterns:
        assert p.size == 2
        for pump in p.pumps:
            assert pump
        # exponents (1, 1) reconstruct a subword pattern of the sample:
        # connectors plus one copy of each pump splice back into {a,b}*
        realized = p.realize((1, 1))
        assert set(realized) <= {"a", "b"}


def test_extracted_patterns_are_ultimately_polynomial(itimesj):
    from zpoly.analysis import normalize_pattern, pattern_polynomial
    words = [tuple("ab" * 8)]
    patterns = list(extract_patterns(itimesj, words, 2, cap=10, seed=0))
    assert patterns
    for p in patterns[:5]:
        norm = normalize_pattern(itimesj, p)
        poly = pattern_polynomial(itimesj, norm)
        assert poly.total_degree() <= itimesj.level
        for point in [(3, 4), (5, 5)]:
            x0 = 6
            shifted = tuple(x0 + c for c in point)
            assert poly.eval(shifted) == itimesj.eval(norm.realize(shifted))
