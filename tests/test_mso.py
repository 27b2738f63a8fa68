"""Counting logic: parsing, compilation to marked automata, and the two
compilation targets (linear representations and Cauchy combinations)."""

import os
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (count_valuations, cplc_from_marked, holds, reference_marked_automaton,
                      words_up_to)
from test_parsers import FORMULAS as PARSER_FORMULAS
from zpoly import lang, mso
from zpoly.cli import main
from zpoly.lang import Alphabet
from zpoly.mso import (MsoError, compile_marked_automaton, count_sets_to_linrep,
                       count_to_cplc, count_to_linrep, free_vars, is_so,
                       parse_count)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import workloads  # noqa: E402  (the benchmark's chain formulas)

AB = Alphabet(["a", "b"])
A1 = Alphabet(["a"])


def parse(text):
    return parse_count(text)


PHI_AB = "alphabet = a b\ncount[x, y] a(x) & b(y)\n"
PSI_ORDERED = "alphabet = a b\ncount[x, y] a(x) & b(y) & x > y\n"


def test_parse_count():
    alphabet, variables, phi = parse(PHI_AB)
    assert list(alphabet) == ["a", "b"]
    assert list(variables) == ["x", "y"]
    assert free_vars(phi) == frozenset(["x", "y"])
    assert not is_so("x") and is_so("X")


def test_holds_reference_semantics():
    _, _, phi = parse(PHI_AB)
    w = ("a", "b", "a")  # positions are 0-based
    assert holds(phi, w, {"x": 0, "y": 1})
    assert not holds(phi, w, {"x": 1, "y": 1})


def test_count_valuations_brute():
    _, variables, phi = parse(PHI_AB)
    assert count_valuations(phi, variables, ("a", "b", "a")) == 2
    assert count_valuations(phi, variables, ()) == 0


def test_counting_pairs_equals_product_all_words_len6():
    alphabet, variables, phi = parse(PHI_AB)
    f = count_to_cplc(phi, variables, alphabet)
    rep = count_to_linrep(phi, variables, alphabet)
    words = words_up_to(["a", "b"], 6)
    assert len(words) == 127  # 126 nonempty + epsilon
    for w in words:
        na = sum(1 for x in w if x == "a")
        nb = sum(1 for x in w if x == "b")
        assert f.eval(w) == na * nb
        assert rep.eval(w) == na * nb


def test_ordered_pairs_structured_words():
    """#(a(x) & b(y) & x > y) on a^{n0} b a^{n1} ... b a^{np} is sum i*n_i."""
    alphabet, variables, phi = parse(PSI_ORDERED)
    f = count_to_cplc(phi, variables, alphabet)
    blocks_list = [
        [0], [3], [1, 2], [2, 0, 1], [0, 0, 4], [1, 1, 1, 1], [5, 0],
        [0, 1], [2, 2, 2], [3, 0, 0, 3], [1, 0, 1, 0, 1], [4], [0, 5],
        [2, 3], [1, 4, 2], [0, 2, 0, 2], [3, 3], [1, 2, 3], [2, 1],
        [0, 0, 0, 1],
    ]
    assert len(blocks_list) == 20
    for blocks in blocks_list:
        word = []
        for i, n in enumerate(blocks):
            if i:
                word.append("b")
            word.extend(["a"] * n)
        want = sum(i * n for i, n in enumerate(blocks))
        assert f.eval(tuple(word)) == want, blocks


FORMULAS = [
    "alphabet = a b\ncount[x] a(x)\n",
    "alphabet = a b\ncount[x] a(x) & forall y. x <= y\n",
    "alphabet = a b\ncount[x, y] x < y\n",
    "alphabet = a b\ncount[x, y] succ(x, y) & a(x) & a(y)\n",
    "alphabet = a b\ncount[x] first(x) -> b(x)\n",
    "alphabet = a b\ncount[x] last(x) | a(x)\n",
    "alphabet = a b\ncount[x, y] x = y & (exists z. z < x)\n",
    "alphabet = a b\ncount[x] !a(x) & !(exists y. y < x & b(y))\n",
]


@pytest.mark.parametrize("text", FORMULAS)
def test_compilations_match_brute_force(text):
    alphabet, variables, phi = parse(text)
    f = count_to_cplc(phi, variables, alphabet)
    rep = count_to_linrep(phi, variables, alphabet)
    for w in words_up_to(list(alphabet), 5):
        want = count_valuations(phi, variables, w)
        assert f.eval(w) == want, (text, w)
        assert rep.eval(w) == want, (text, w)


def test_sentence_zero_variables():
    alphabet, variables, phi = parse(
        "alphabet = a b\ncount[] exists x. a(x)\n")
    assert list(variables) == []
    f = count_to_cplc(phi, variables, alphabet)
    for w in words_up_to(["a", "b"], 4):
        assert f.eval(w) == (1 if "a" in w else 0)


def test_marked_automaton_invariant():
    alphabet, variables, phi = parse(PHI_AB)
    marked = compile_marked_automaton(phi, variables, alphabet)
    # accepts exactly the well-marked encodings of satisfying valuations
    w = ("a", "b")
    good = (("a", (1, 0)), ("b", (0, 1)))
    bad_mark = (("a", (1, 1)), ("b", (0, 0)))
    assert marked.accepts(good)
    assert not marked.accepts(bad_mark)


def test_so_rejected_by_cplc_target():
    alphabet, variables, phi = parse("alphabet = a\ncount[X] true\n")
    with pytest.raises(MsoError):
        count_to_cplc(phi, variables, alphabet)


def test_second_order_powerset():
    alphabet, variables, phi = parse("alphabet = a\ncount[X] true\n")
    rep = count_sets_to_linrep(phi, variables, alphabet)
    for n in range(9):
        assert rep.eval(("a",) * n) == 2 ** n


PSI_STEP2 = """alphabet = a
count[X] (exists f. first(f) & f in X)
       & (exists l. last(l) & l in X)
       & (forall x. (x in X) ->
            (!(exists y. succ(x, y) & y in X))
          & (forall z. (exists y. succ(x, y) & succ(y, z)) -> z in X))
"""


def test_second_order_step_two_is_odd_indicator():
    alphabet, variables, phi = parse(PSI_STEP2)
    rep = count_sets_to_linrep(phi, variables, alphabet)
    for n in range(9):
        assert rep.eval(("a",) * n) == (n % 2)


def test_parse_errors():
    for bad in ["alphabet = a\ncount[x] c(x)\n",
                "alphabet = a\ncount[x] a(x\n",
                "alphabet = a\na(x)\n",
                "alphabet = a\ncount[x] a(y)\n"]:
        with pytest.raises((MsoError, ValueError)):
            alphabet, variables, phi = parse(bad)
            count_to_cplc(phi, variables, alphabet)


def chain_formula(rng, letters, k):
    """`workloads.chain_formula`, and its shape with five variables."""
    if k < 5:
        return workloads.chain_formula(rng, letters, k)
    names = ("x", "y", "z", "t", "v")
    parts = [("letter", rng.choice(letters), v) for v in names]
    for v, w in zip(names, names[1:]):
        parts.append(("succ", v, w) if rng.random() < 0.3 else ("less", v, w))
    if rng.random() < 0.5:
        parts.append(("exists", "u", workloads.conj(("less", names[-1], "u"),
                                                    ("letter", rng.choice(letters), "u"))))
    return names, workloads.conj(*parts)


def chain_formulas(k_max=4):
    """(alphabet, variables, formula) of the 48 chain formulas: six seeds
    for each of 1-4 variables over {a, b} and {a, b, c}."""
    for letters in (["a", "b"], ["a", "b", "c"]):
        for k in range(1, k_max + 1):
            for seed in range(6):
                names, phi = chain_formula(random.Random(seed), letters, k)
                yield parse(workloads.zmso(letters, names, phi))


@pytest.mark.parametrize("letters", [["a", "b"], ["a", "b", "c"]], ids="".join)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_count_to_cplc_matches_the_split_oracle(letters, k):
    """Term for term, the Cauchy combination that conftest's split oracle
    sums one `Cplc.add` at a time, on six seeded chain formulas each (two
    with five variables)."""
    for seed in range(6 if k < 5 else 2):
        names, phi = chain_formula(random.Random(seed), letters, k)
        alphabet, variables, phi = parse(workloads.zmso(letters, names, phi))
        marked = compile_marked_automaton(phi, variables, alphabet)
        assert count_to_cplc(phi, variables, alphabet) == cplc_from_marked(marked, alphabet, k)


def split_counters(monkeypatch):
    """Counters of the split phase of `count_to_cplc`: each
    `_cplc_from_marked` call records its (suffix automaton, k) entry,
    `_min_split_languages` counts its calls and the explorations it makes,
    and every suffix looked up in the table is counted."""
    calls, entries = Counter(), []
    real_cplc, real_split, real_explore = (mso._cplc_from_marked, mso._min_split_languages,
                                           lang.explore)
    real_restrict = mso._Shared.restrict

    def cplc_from_marked(shared, marked, k):
        entries.append((marked.key(), k))
        return real_cplc(shared, marked, k)

    def split(*args):
        calls["splits"] += 1
        return real_split(*args)

    def explore(*args):   # counted when called by _min_split_languages itself
        calls["explorations"] += sys._getframe(1).f_code is real_split.__code__
        return real_explore(*args)

    def restrict(*args):
        calls["suffixes"] += 1
        return real_restrict(*args)

    monkeypatch.setattr(mso, "_cplc_from_marked", cplc_from_marked)
    monkeypatch.setattr(mso, "_min_split_languages", split)
    monkeypatch.setattr(lang, "explore", explore)
    monkeypatch.setattr(mso._Shared, "restrict", restrict)
    return calls, entries


def test_split_languages_explore_once_per_track_set(monkeypatch):
    """On the 48 chain formulas, `_cplc_from_marked` runs once per distinct
    (suffix automaton, k) of a call, `_min_split_languages` once per track
    set of each, and each of those explores the pair automaton once:
    explorations = splits = the sum of 2^k - 1 over the distinct entries
    (the split oracle explores once per state q: 4873 times)."""
    calls, entries = split_counters(monkeypatch)
    track_sets = 0
    for alphabet, variables, phi in chain_formulas():
        del entries[:]
        count_to_cplc(phi, variables, alphabet)
        assert len(set(entries)) == len(entries)
        track_sets += sum(2 ** k - 1 for _, k in entries)
    assert calls["explorations"] == calls["splits"] == track_sets > 0


@pytest.mark.parametrize("conditions, entries, suffixes, parent_calls", [
    ("&x<y&y<z&z<t&t<u", 6, 5, 1267), ("", 20, 87, 3612)], ids=["ordered", "unordered"])
def test_five_variable_chain_splits_each_suffix_once_not_each_ordered_partition(
        monkeypatch, conditions, entries, suffixes, parent_calls):
    """Each distinct (suffix automaton, k) is split once, and every other
    suffix that a split reaches is read from the table.  A recursion with
    no table, which also splits at the dead state, calls `_cplc_from_marked`
    `parent_calls` times: it splits a suffix again for every ordered
    partition of the variables that reaches it."""
    calls, seen = split_counters(monkeypatch)
    alphabet, variables, phi = parse(
        "alphabet = a b\ncount[x,y,z,t,u] a(x)&b(y)&a(z)&b(t)&a(u)%s\n" % conditions)
    count_to_cplc(phi, variables, alphabet)
    assert len(set(seen)) == len(seen) == entries
    assert calls["splits"] == calls["explorations"] == sum(2 ** k - 1 for _, k in seen)
    assert calls["suffixes"] == suffixes < parent_calls


def test_compile_matches_the_reference_lift_on_the_chain_formulas():
    """The 48 chain formulas: no `&` lift adds a mark, yet the canonical
    marked automaton equals conftest's, which adds one at every lift."""
    for alphabet, variables, phi in chain_formulas():
        assert compile_marked_automaton(phi, variables, alphabet) == \
            reference_marked_automaton(phi, variables, alphabet)


@pytest.mark.parametrize("text", PARSER_FORMULAS)
def test_compile_matches_the_reference_lift_on_the_parser_formulas(text):
    """`|`, `!`, `exists`, `->`, `succ`, `first`, `last`, second-order
    variables and unused declared variables; a formula whose free variables
    are not all declared is compiled on its free variables."""
    alphabet, variables, phi = parse(text)
    if not free_vars(phi) <= set(variables):
        with pytest.raises(MsoError, match="not declared"):
            compile_marked_automaton(phi, variables, alphabet)
        variables = sorted(free_vars(phi))
    assert compile_marked_automaton(phi, variables, alphabet) == \
        reference_marked_automaton(phi, variables, alphabet)


def small_formulas():
    """First-order formulas of up to six atoms over x, y, z; quantifiers
    may shadow a variable that also occurs free."""
    var = st.sampled_from(["x", "y", "z"])
    atoms = st.one_of(st.tuples(st.just("letter"), st.sampled_from(["a", "b"]), var),
                      st.tuples(st.sampled_from(["less", "eq"]), var, var),
                      st.sampled_from([("true",), ("false",)]))
    return st.recursive(atoms, lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.sampled_from(["and", "or"]), sub, sub),
        st.tuples(st.just("exists"), var, sub)), max_leaves=6)


@seed(1)
@settings(max_examples=200, deadline=None)
@given(small_formulas(), st.data())
def test_compile_matches_the_reference_lift_on_small_formulas(phi, data):
    """Declared in any order, with or without an unused variable."""
    unused = data.draw(st.sampled_from([[], ["w"], ["Y"]]))
    variables = data.draw(st.permutations(sorted(free_vars(phi)) + unused))
    assert compile_marked_automaton(phi, variables, AB) == \
        reference_marked_automaton(phi, variables, AB)


@pytest.mark.parametrize("text", [PHI_AB, "alphabet = a b\ncount[] exists x. a(x)\n"],
                         ids=["refused-at-and", "refused-at-exists"])
def test_state_cap_refuses_large_automata(text, monkeypatch, tmp_path):
    monkeypatch.setattr(mso, "STATE_CAP", 1)
    alphabet, variables, phi = parse(text)
    with pytest.raises(MsoError, match="state cap exceeded"):
        count_to_linrep(phi, variables, alphabet)
    path = tmp_path / "f.zmso"
    path.write_text(text)
    assert main(["eval", str(path), "ab"]) == 3
