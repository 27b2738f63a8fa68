"""Counting logic: parsing, compilation to marked automata, and the two
compilation targets (linear representations and Cauchy combinations)."""

import os
import random
import sys
from collections import Counter

import pytest

from conftest import count_valuations, cplc_from_marked, holds, words_up_to
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


@pytest.mark.parametrize("letters", [["a", "b"], ["a", "b", "c"]], ids="".join)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_count_to_cplc_matches_the_split_oracle(letters, k):
    """Term for term, the Cauchy combination that conftest's split oracle
    sums one `Cplc.add` at a time, on six seeded chain formulas each."""
    for seed in range(6):
        names, phi = workloads.chain_formula(random.Random(seed), letters, k)
        alphabet, variables, phi = parse(workloads.zmso(letters, names, phi))
        marked = compile_marked_automaton(phi, variables, alphabet)
        assert count_to_cplc(phi, variables, alphabet) == cplc_from_marked(marked, alphabet, k)


def test_split_languages_explore_once_per_track_set(monkeypatch):
    """On the 48 chain formulas, `_min_split_languages` runs once per track
    set of each `_cplc_from_marked` call and explores the pair automaton
    once, reading the accepting pairs of every state q from it (the split
    oracle explores once per q: 4873 times, 2137 of them for nothing;
    here it is 2616 times)."""
    calls = Counter()
    real_cplc, real_split, real_explore = (mso._cplc_from_marked, mso._min_split_languages,
                                           lang.explore)

    def cplc_from_marked(marked, base, k):
        calls["track sets"] += 2 ** k - 1
        return real_cplc(marked, base, k)

    def split(*args):
        calls["splits"] += 1
        return real_split(*args)

    def explore(*args):   # counted when called by _min_split_languages itself
        calls["explorations"] += sys._getframe(1).f_code is real_split.__code__
        return real_explore(*args)

    monkeypatch.setattr(mso, "_cplc_from_marked", cplc_from_marked)
    monkeypatch.setattr(mso, "_min_split_languages", split)
    monkeypatch.setattr(lang, "explore", explore)
    for letters in (["a", "b"], ["a", "b", "c"]):
        for k in range(1, 5):
            for seed in range(6):
                names, phi = workloads.chain_formula(random.Random(seed), letters, k)
                alphabet, variables, phi = parse(workloads.zmso(letters, names, phi))
                count_to_cplc(phi, variables, alphabet)
    assert calls["explorations"] == calls["splits"] == calls["track sets"] > 0


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
