"""Regular languages: regexes, automata, residuals, monoids."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import concat_by_subsets, regex_matches, star_by_subsets, words_up_to
from zpoly import lang
from zpoly.lang import (Alphabet, Dfa, FiniteMonoid, MonoidMorphism,
                        RegexError, compile_regex, complement, concat,
                        dfa_from_json, dfa_to_json, epsilon_language, intersect,
                        monoid_from_generators, parse_regex,
                        residual_language, star,
                        transition_monoid, union)

AB = Alphabet(["a", "b"])


def lang_set(dfa, n=5):
    return {w for w in words_up_to(list(dfa.alphabet), n) if dfa.accepts(w)}


def test_regex_basic_semantics():
    cases = {
        "a": {("a",)},
        "ab": {("a", "b")},
        "a|b": {("a",), ("b",)},
        "()": {()},
        "∅": set(),
        "a*": {("a",) * k for k in range(6)},
        "(a|b)*a": {w for w in words_up_to(["a", "b"], 5) if w and w[-1] == "a"},
        "!(a(a|b)*)": {w for w in words_up_to(["a", "b"], 5)
                       if not (w and w[0] == "a")},
        "(a|b)*a & a(a|b)*": {w for w in words_up_to(["a", "b"], 5)
                              if w and w[0] == "a" and w[-1] == "a"},
    }
    for text, want in cases.items():
        dfa = compile_regex(text, AB)
        assert lang_set(dfa) == want, text


REGEXES = st.sampled_from(["a", "b", "ab", "a|b", "a*b", "(ab)*", "!(a*)",
                          "a*&(a|b)*b", "(a|ba)*", "!(∅)", "()a*"])


@settings(max_examples=80, deadline=None)
@given(REGEXES, st.lists(st.sampled_from(["a", "b"]), max_size=6))
def test_regex_dfa_matches_reference_matcher(text, letters):
    node = parse_regex(text, AB)
    dfa = compile_regex(text, AB)
    w = tuple(letters)
    assert dfa.accepts(w) == regex_matches(node, w)


def test_regex_errors():
    for bad in ["c", "a(", "*a", "a||b", ""]:
        with pytest.raises(RegexError):
            compile_regex(bad, AB)


def test_boolean_operations():
    x = compile_regex("a(a|b)*", AB)
    y = compile_regex("(a|b)*b", AB)
    for w in words_up_to(["a", "b"], 5):
        assert intersect(x, y).accepts(w) == (x.accepts(w) and y.accepts(w))
        assert union(x, y).accepts(w) == (x.accepts(w) or y.accepts(w))
        assert complement(x).accepts(w) == (not x.accepts(w))
        assert concat(x, y).accepts(w) == any(
            x.accepts(w[:i]) and y.accepts(w[i:]) for i in range(len(w) + 1))


def test_star_operation():
    x = compile_regex("ab", AB)
    s = star(x)
    assert lang_set(s, 6) == {("a", "b") * k for k in range(4)}


def test_canonical_equality():
    # two syntactically different regexes for the same language
    x = compile_regex("(a|b)*a(a|b)*", AB).canonical()
    y = compile_regex("!(b*)", AB).canonical()
    assert x == y and hash(x) == hash(y)
    z = compile_regex("a*", AB).canonical()
    assert x != z


def test_canonical_is_minimal():
    # (aa)* needs exactly 3 states over {a} when complete: even, odd... no,
    # 2 states suffice (parity); the canonical form must reach that minimum
    a1 = Alphabet(["a"])
    d = compile_regex("(aa)*", a1).canonical()
    assert d.n == 2
    d2 = compile_regex("a(a|b)*", AB).canonical()
    assert d2.n == 3  # start, accepted-forever, rejected-forever


# the canonical key depends only on the language: each pair of DFAs below is
# built two ways and must come out structurally equal


@settings(max_examples=100, deadline=None)
@given(REGEXES, REGEXES)
def test_union_key_is_the_de_morgan_key(r, s):
    x, y = compile_regex(r, AB), compile_regex(s, AB)
    assert union(x, y).key() == complement(intersect(complement(x), complement(y))).key()


@settings(max_examples=100, deadline=None)
@given(REGEXES, REGEXES, REGEXES)
def test_concat_key_is_built_two_ways(r, s, t):
    x, y, z = compile_regex(r, AB), compile_regex(s, AB), compile_regex(t, AB)
    assert concat(x, y).key() == concat_by_subsets(x, y).canonical().key()
    assert concat(union(x, z), y).key() == union(concat(x, y), concat(z, y)).key()


@settings(max_examples=100, deadline=None)
@given(REGEXES)
def test_star_key_is_built_two_ways(r):
    x = compile_regex(r, AB)
    assert star(x).key() == star_by_subsets(x).canonical().key()
    assert star(x).key() == union(epsilon_language(AB), concat(x, star(x))).key()


@settings(max_examples=100, deadline=None)
@given(REGEXES, st.randoms(use_true_random=False))
def test_canonical_key_ignores_numbering_and_unreachable_states(r, rng):
    """A copy of the canonical DFA with its states shuffled, next to an
    unreachable copy of its complement, canonicalizes back to it."""
    d = compile_regex(r, AB)
    n = d.n
    perm = list(range(2 * n))
    rng.shuffle(perm)
    delta = {a: [0] * (2 * n) for a in AB}
    for copy in (0, n):
        for q in range(n):
            for a in AB:
                delta[a][perm[copy + q]] = perm[copy + d.delta[a][q]]
    accepting = [perm[q] for q in d.accepting] + [perm[n + q] for q in range(n)
                                                  if q not in d.accepting]
    shuffled = Dfa(AB, 2 * n, perm[d.initial], accepting, delta)
    assert shuffled.canonical().key() == d.key()


def explored(monkeypatch):
    """The automata `lang.explore` builds from now on, in order."""
    built = []
    real = lang.explore

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(lang, "explore", recording)
    return built


@settings(max_examples=100, deadline=None)
@given(REGEXES, REGEXES)
def test_an_explored_automaton_is_not_explored_again(r, s):
    """Canonicalizing what `explore` has just built skips the reachability
    pass: a product is explored once, and once more only to merge states;
    the complement of a canonical DFA is canonical as it stands."""
    x, y = compile_regex(r, AB), compile_regex(s, AB)
    with pytest.MonkeyPatch.context() as m:
        built = explored(m)
        product = intersect(x, y)
        assert len(built) == (1 if built[0].n == product.n else 2)
        del built[:]
        assert complement(x).n == x.n and built == []


def test_residual_language():
    x = compile_regex("a(a|b)*b", AB)
    r = residual_language(x, ("a",))
    for w in words_up_to(["a", "b"], 5):
        assert r.accepts(w) == x.accepts(("a",) + w)


def test_dfa_json_round_trip():
    x = compile_regex("a(ba)*", AB)
    y = dfa_from_json(dfa_to_json(x))
    assert x.key() == y.key()


def test_transition_monoid_aperiodicity():
    aperiodic_dfa = compile_regex("a(a|b)*", AB)
    m, mor, _ = transition_monoid(aperiodic_dfa)
    assert m.check_associative(mor.letter_images.values())
    ok, _omega = m.aperiodicity
    assert ok
    periodic_dfa = compile_regex("(aa)*", Alphabet(["a"]))
    m2, _, _ = transition_monoid(periodic_dfa)
    ok2, _ = m2.aperiodicity
    assert not ok2


def test_monoid_element_index_period():
    # Z/3 as a monoid: x -> x+1 mod 3 generated
    table = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
    m = FiniteMonoid(3, table, 0)
    idx, per = m.element_index_period(1)
    assert per == 3
    assert m.power(1, 5) == 2
    ok, omega = m.aperiodicity
    assert not ok
    assert m.is_idempotent(0) and not m.is_idempotent(1)


def test_morphism_shortest_preimage():
    table = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
    m = FiniteMonoid(3, table, 0)
    mor = MonoidMorphism(m, Alphabet(["a"]), {"a": 1})
    assert mor.image("aaaa") == 1
    assert mor.shortest_preimage(2) == ("a", "a")
    assert mor.shortest_preimage(0) == ()


def test_monoid_from_generators():
    al = Alphabet(["a", "b"])
    gens = {"a": (1, 1), "b": (0, 0)}  # transformations of {0,1}
    m, mor, elements = monoid_from_generators(
        al, gens, unit=(0, 1), compose=lambda x, y: tuple(y[q] for q in x))
    assert m.check_associative(mor.letter_images.values())
    # closure is {identity, constant-1, constant-0}
    assert m.size == 3
    assert elements[mor.image("ab")] == (0, 0)
    assert elements[mor.image("ba")] == (1, 1)


def test_j_classes_are_mutual_two_sided_ideals():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 4)
        al = Alphabet(["a", "b", "c"][:rng.randint(2, 3)])
        delta = {a: [rng.randrange(n) for _ in range(n)] for a in al}
        m, mor, _ = transition_monoid(Dfa(al, n, 0, [0], delta))
        ideal = [{m.mul(m.mul(u, x), v) for u in range(m.size) for v in range(m.size)}
                 for x in range(m.size)]
        j = mor.j_class()
        for x in range(m.size):
            for y in range(m.size):
                assert (j[x] == j[y]) == (x in ideal[y] and y in ideal[x])
