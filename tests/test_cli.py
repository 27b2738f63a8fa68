"""Command line interface: inputs, subcommands, exit codes."""

import contextlib
import copy
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zpoly import cplc
from zpoly.analysis import SearchBudget
from zpoly.cli import (InputError, build_parser, load_function, load_morphism, main,
                        make_budget)

SIGNED_ZEXPR = """alphabet = a
ind(a(aa)*) . ind(a(aa)*) + ind((aa)*) . ind((aa)*)
 - ind((aa)*) . ind(a(aa)*) - ind(a(aa)*) . ind((aa)*)
 + ind(a(aa)*) - ind((aa)*)
"""

COUNT_A_ZEXPR = "alphabet = a b\nind((a|b)*a) . ind((a|b)*)\n"
A_ASTAR_ZEXPR = "alphabet = a b\nind(a(a|b)*)\n"
STAR_ZEXPR = "alphabet = a\nstar(-3 * ind(a*a))\n"
IMPROPER_STAR_ZEXPR = "alphabet = a\nstar(-3 * ind(a*))\n"
PAIRS_ZMSO = "alphabet = a b\ncount[x, y] a(x) & b(y)\n"
POWERSET_ZMSO = "alphabet = a\ncount[X] true\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_expression(files, capsys):
    path = files("signed.zexpr", SIGNED_ZEXPR)
    code, out, _ = run(capsys, "eval", path, "aaa")
    assert code == 0 and out.strip() == "-3"
    code, out, _ = run(capsys, "eval", path)
    assert code == 0 and out.strip() == "0"


def test_eval_star_expression(files, capsys):
    path = files("geo.zexpr", STAR_ZEXPR)
    code, out, _ = run(capsys, "eval", path, "aaa")
    assert code == 0 and out.strip() == "-12"


@pytest.mark.parametrize("argv", [["eval", "{f}", "aa"], ["compile", "{f}"]])
def test_star_of_improper_series_exits_3(files, capsys, argv):
    """star(e) needs e(eps) = 0; -3 * ind(a*) is -3 on the empty word."""
    path = files("improper.zexpr", IMPROPER_STAR_ZEXPR)
    code, out, err = run(capsys, *(a.replace("{f}", path) for a in argv))
    assert code == 3 and out == "" and "proper series" in err


def test_eval_mso(files, capsys):
    path = files("pairs.zmso", PAIRS_ZMSO)
    code, out, _ = run(capsys, "eval", path, "aabb")
    assert code == 0 and out.strip() == "4"


@pytest.mark.parametrize("formula, value", [("count[_z,y] succ(_z,y)", 2),
                                            ("count[_z] first(_z)", 1),
                                            ("count[_z] last(_z)", 1)])
def test_sugar_captures_no_user_variable(files, capsys, formula, value):
    """succ, first and last bind a helper variable that no identifier can
    spell, so a user variable named `_z` is counted like any other."""
    path = files("sugar.zmso", "alphabet = a b\n" + formula + "\n")
    assert run(capsys, "eval", path, "aab") == (0, "%d\n" % value, "")


def test_compile_and_json_round_trip(files, capsys, tmp_path):
    path = files("wa.zexpr", COUNT_A_ZEXPR)
    code, out, _ = run(capsys, "compile", path, "--target", "linrep",
                       "--minimize")
    assert code == 0
    rep_path = tmp_path / "wa.json"
    rep_path.write_text(out)
    code, out2, _ = run(capsys, "eval", str(rep_path), "abab")
    assert code == 0 and out2.strip() == "2"


def test_compile_cplc_json(files, capsys, tmp_path):
    path = files("wa.zexpr", COUNT_A_ZEXPR)
    code, out, _ = run(capsys, "compile", path, "--target", "cplc")
    assert code == 0
    data = json.loads(out)
    assert "terms" in data
    p = tmp_path / "wa_cplc.json"
    p.write_text(out)
    code, out2, _ = run(capsys, "eval", str(p), "aba")
    assert code == 0 and out2.strip() == "2"


def test_minimize_text(files, capsys):
    path = files("signed.zexpr", SIGNED_ZEXPR)
    code, out, _ = run(capsys, "minimize", path, "--format", "text")
    assert code == 0 and "dimension 2" in out


def test_equiv_yes_and_no(files, capsys):
    f = files("signed.zexpr", SIGNED_ZEXPR)
    g = files("wa.zexpr", COUNT_A_ZEXPR)
    h = files("signed2.zexpr", SIGNED_ZEXPR)
    code, out, _ = run(capsys, "equiv", f, h)
    assert code == 0 and "equivalent" in out
    code, out, _ = run(capsys, "equiv", f, f.replace("signed", "signed2"))
    assert code == 0
    # different alphabets aside, compare against a perturbed version
    perturbed = files("pert.zexpr", SIGNED_ZEXPR.rstrip() + " + ind(aaa)\n")
    code, out, _ = run(capsys, "equiv", f, perturbed)
    assert code == 1 and "distinguishing" in out


def test_equiv_mod(files, capsys):
    f = files("wa.zexpr", COUNT_A_ZEXPR)
    g = files("twice.zexpr", "alphabet = a b\n2 * ind((a|b)*a) . ind((a|b)*)\n")
    code, out, _ = run(capsys, "equiv", f, g, "--mod", "0")
    assert code == 1
    code, out, _ = run(capsys, "equiv", f, g, "--mod", "1")
    assert code == 0


def test_growth(files, capsys):
    f = files("wa.zexpr", COUNT_A_ZEXPR)
    code, out, _ = run(capsys, "growth", f)
    assert code == 0 and out.startswith("degree 1")
    g = files("ind.zexpr", A_ASTAR_ZEXPR)
    code, out, _ = run(capsys, "growth", g)
    assert code == 0 and out.startswith("degree 0")


def test_a_pump_longer_than_the_budget_is_found_only_by_raising_it(files, capsys):
    """|w|_aab has degree 1, but a pump w raises it only if ww contains aab,
    so w has at least 3 letters: the grid's pumps have at most 2 at the
    default budget and the forest harvest finds none, so the lower bound
    stays 0 until the pump length allows 3."""
    f = files("aab.zexpr", "alphabet = a b\nind((a|b)*) . ind(aab(a|b)*)\n")
    code, out, _ = run(capsys, "growth", f)
    assert code == 2 and out.startswith("degree 0 (budget exhausted: lower bound only)")
    code, out, _ = run(capsys, "starfree", f)
    assert code == 2 and "undecided: growth degree undecided within budget" in out
    code, out, _ = run(capsys, "growth", f, "--budget-pump-len", "3")
    assert code == 0 and "witness pattern: _ (aab)^X _" in out and "polynomial: X1" in out
    code, out, _ = run(capsys, "starfree", f, "--budget-pump-len", "3")
    assert code == 0 and out.startswith("star-free")


def test_growth_rejects_linrep_input(files, capsys):
    """star(-3 * ind(a*a)) is (-2)^n-exponential: a definite no."""
    f = files("geo.zexpr", STAR_ZEXPR)
    code, out, err = run(capsys, "growth", f)
    assert code == 1 and not err
    assert "not of polynomial growth" in out and "'a'" in out and "2*X + X^2" in out


HALF_JSON = json.dumps({"alphabet": ["a"], "dim": 1, "initial": ["1"], "final": ["1"],
                        "matrices": {"a": [["1/2"]]}})


@pytest.mark.parametrize("command", ["growth", "pump", "rt", "starfree"])
def test_exponential_input_is_a_definite_no(files, capsys, command):
    """2^n has X - 2 on `a`, an integral polynomial with a root of modulus
    > 1; a bounded linear representation, and one whose violating
    polynomial is not integral, stay malformed input."""
    code, out, err = run(capsys, command, files("pow.zmso", POWERSET_ZMSO))
    assert code == 1 and not err
    assert out == ("not of polynomial growth: the word matrix of 'a' has characteristic "
                   "polynomial -2 + X, with a root of modulus > 1\n")
    for name, text in (("bounded.zexpr", "alphabet = a b\nstar(ind(ab))\n"),
                       ("half.json", HALF_JSON)):
        code, out, err = run(capsys, command, files(name, text))
        assert code == 3 and not out and "input error" in err


# mu(a) is the companion matrix of Phi_12 = X^4 - X^2 + 1, so mu(a)^12 = I
PHI12_JSON = json.dumps({"alphabet": ["a"], "dim": 4, "initial": ["1", "0", "0", "0"],
                         "final": ["1", "0", "0", "0"],
                         "matrices": {"a": [["0", "1", "0", "0"], ["0", "0", "1", "0"],
                                            ["0", "0", "0", "1"], ["-1", "0", "1", "0"]]}})


def test_roots_of_unity_of_order_12_conform(files, capsys):
    """X^6 + 1 = Phi_4 Phi_12 and Phi_12 have only roots of unity as roots:
    the spectra conform, and a bounded raw linear representation is not a
    definite no to a growth question but malformed input."""
    path = files("p12.zexpr", "alphabet = a\nind((aaaaaaaaaaaa)*) - ind(aaaaaa(aaaaaaaaaaaa)*)\n")
    code, out, _ = run(capsys, "spectrum", path)
    assert code == 0 and "all spectra conform" in out
    path = files("phi12.json", PHI12_JSON)
    code, out, _ = run(capsys, "spectrum", path)
    assert code == 0 and "all spectra conform" in out
    for command in ("growth", "starfree"):
        code, out, err = run(capsys, command, path)
        assert code == 3 and not out and "polynomial-growth (Cauchy combination)" in err


# mu(a) = [[1/2, 1], [0, 3]] has the characteristic polynomial (X - 1/2)(X - 3)
FRACTIONAL_JSON = json.dumps({"alphabet": ["a", "b"], "dim": 2, "initial": ["1", "0"],
                              "final": ["0", "1"],
                              "matrices": {"a": [["1/2", "1"], ["0", "3"]],
                                           "b": [["1", "0"], ["0", "1"]]}})


def test_fractional_characteristic_polynomial_is_printed_exactly(files, capsys):
    code, out, _ = run(capsys, "spectrum", files("frac.json", FRACTIONAL_JSON))
    assert code == 1
    assert "violation on 'a': characteristic polynomial 3/2 + -7/2*X + X^2\n" in out


def test_exponential_input_elsewhere_is_malformed(files, capsys):
    f = files("pow.zmso", POWERSET_ZMSO)
    for argv in (["equiv", f, f, "--mod", "1"], ["compile", f, "--target", "cplc"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out and "input error" in err


def test_rt_formats(files, capsys):
    f = files("signed.zexpr", SIGNED_ZEXPR)
    code, out, _ = run(capsys, "rt", f, "-k", "1")
    assert code == 0 and out.startswith("2 states at level 1")
    code, out, _ = run(capsys, "rt", f, "-k", "1", "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(capsys, "rt", f, "-k", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [s["output"] for s in data["states"]] == [0, -1]


def test_starfree(files, capsys):
    yes = files("ind.zexpr", A_ASTAR_ZEXPR)
    code, out, _ = run(capsys, "starfree", yes)
    assert code == 0 and out.startswith("star-free")
    no = files("even.zexpr", "alphabet = a\nind((aa)*)\n")
    code, out, _ = run(capsys, "starfree", no)
    assert code == 1 and out.startswith("not star-free")


def test_spectrum(files, capsys):
    f = files("signed.zexpr", SIGNED_ZEXPR)
    code, out, _ = run(capsys, "spectrum", f, "--mode", "zero_union_unity")
    assert code == 0 and "conform" in out
    code, out, _ = run(capsys, "spectrum", f, "--mode", "zero_one")
    assert code == 1 and "violation" in out
    g = files("pow.zmso", POWERSET_ZMSO)
    code, out, _ = run(capsys, "spectrum", g, "--mode", "zero_union_unity")
    assert code == 1


def test_spectrum_one_letter_long_bound(files, capsys):
    """1501 words a^0 .. a^1500 are checked exhaustively, deeper than the
    interpreter's recursion limit."""
    f = files("astar.zexpr", "alphabet = a\nind(a*)\n")
    code, out, _ = run(capsys, "spectrum", f, "--length-bound", "1500", "--samples", "5000")
    assert code == 0 and "checked 1501 word matrices" in out
    assert "all spectra conform" in out


def test_parser_is_built_once_and_keeps_no_values(files, capsys):
    assert build_parser() is build_parser()
    f = files("signed.zexpr", SIGNED_ZEXPR)
    code, out, _ = run(capsys, "spectrum", f, "--seed", "5", "--mode", "zero_one")
    assert code == 1 and "(zero_one)" in out
    code, out, _ = run(capsys, "spectrum", f)
    assert code == 0 and "(zero_union_unity)" in out


MORPHISM_JSON = json.dumps({
    "monoid": {"size": 2, "table": [[0, 1], [1, 0]], "unit": 0},
    "letters": {"a": 1, "b": 0},
})


def test_forest_command(files, capsys):
    m = files("parity.json", MORPHISM_JSON)
    code, out, _ = run(capsys, "forest", m, "abaab")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("depth ") and "(bound 6)" in lines[-1]
    code, out, _ = run(capsys, "forest", m, "abaab", "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_forest_bad_word(files, capsys):
    m = files("parity.json", MORPHISM_JSON)
    code, _, err = run(capsys, "forest", m, "abc")
    assert code == 3


# {1, x, 0} with x^2 = 0: a -> 1, b -> x
ZERO_X_JSON = json.dumps({
    "monoid": {"size": 3, "table": [[0, 1, 2], [1, 2, 2], [2, 2, 2]], "unit": 0},
    "letters": {"a": 0, "b": 1},
})


@pytest.mark.parametrize("length", [50, 1000])
def test_forest_meets_depth_bound_on_zero_x(files, capsys, length):
    m = files("zerox.json", ZERO_X_JSON)
    rng = random.Random(length)
    word = "".join(rng.choice("ab") for _ in range(length))
    code, out, _ = run(capsys, "forest", m, word)
    last = out.strip().splitlines()[-1].split()
    assert code == 0 and last[0] == "depth" and int(last[1]) <= 9


def test_non_associative_morphism_exits_3(files, capsys):
    """x + y mod 14 with one entry changed: 50 failing triples, none of them
    among the first 12 elements alone."""
    table = [[(i + j) % 14 for j in range(14)] for i in range(14)]
    table[12][13] = 5
    m = files("bad14.json", json.dumps({
        "monoid": {"size": 14, "table": table, "unit": 0}, "letters": {"a": 1}}))
    code, _, err = run(capsys, "forest", m, "aaa")
    assert code == 3 and "not associative" in err
    table = [[(i + j) % 2 for j in range(2)] for i in range(2)]
    m = files("nounit.json", json.dumps({
        "monoid": {"size": 2, "table": table, "unit": 1}, "letters": {"a": 1}}))
    assert run(capsys, "forest", m, "aa")[0] == 3


def test_pump_command(files, capsys):
    f = files("wa.zexpr", COUNT_A_ZEXPR)
    code, out, _ = run(capsys, "pump", f)
    assert code == 0 and "degree 1" in out and "pattern:" in out


def test_input_errors(files, capsys, tmp_path):
    code, _, err = run(capsys, "eval", str(tmp_path / "missing.zexpr"), "a")
    assert code == 3
    bad = files("bad.zexpr", "alphabet = a\nind((\n")
    code, _, err = run(capsys, "eval", bad, "a")
    assert code == 3
    unk = files("data.txt", "hello")
    code, _, err = run(capsys, "eval", unk, "a")
    assert code == 3
    badjson = files("bad.json", "{not json")
    code, _, err = run(capsys, "eval", badjson, "a")
    assert code == 3


# ---------------------------------------------------------------------------
# malformed inputs exit 3, with a message instead of a traceback

LINREP = {"alphabet": ["a", "b"], "dim": 2, "initial": ["1", "0"], "final": ["0", "1"],
          "matrices": {"a": [["1", "1"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]]}}
DFA = {"alphabet": ["a", "b"], "states": 2, "initial": 0, "accepting": [1],
       "delta": {"a": [1, 1], "b": [0, 1]}}


def _linrep_with(change):
    data = json.loads(json.dumps(LINREP))
    change(data)
    return json.dumps(data)


def test_ragged_matrix_exits_3(files, capsys):
    path = files("ragged.json", _linrep_with(
        lambda d: d["matrices"]["a"].__setitem__(1, ["1"])))
    code, _, err = run(capsys, "eval", path, "ab")
    assert code == 3 and "ragged" in err


def test_missing_letter_matrix_exits_3(files, capsys):
    path = files("missing.json", _linrep_with(lambda d: d["matrices"].pop("b")))
    code, _, err = run(capsys, "eval", path, "ab")
    assert code == 3 and "'b'" in err


def test_non_numeric_entry_exits_3(files, capsys):
    path = files("nonnum.json", _linrep_with(
        lambda d: d["matrices"]["a"][0].__setitem__(1, "x3")))
    code, _, err = run(capsys, "eval", path, "ab")
    assert code == 3 and "'x3'" in err


def test_delta_out_of_range_exits_3(files, capsys):
    dfa = json.loads(json.dumps(DFA))
    dfa["delta"]["b"][0] = 4
    path = files("baddfa.json", json.dumps(
        {"alphabet": ["a", "b"], "level": 0, "terms": [{"coef": 1, "factors": [dfa]}]}))
    code, _, err = run(capsys, "eval", path, "ab")
    assert code == 3 and "state 4" in err


def test_eval_letter_outside_alphabet_exits_3(files, capsys):
    path = files("wa.zexpr", COUNT_A_ZEXPR)
    code, out, err = run(capsys, "eval", path, "abzab")
    assert code == 3 and out == "" and "'z'" in err


def test_non_json_morphism_exits_3(files, capsys):
    path = files("badmorph.json", '{"monoid": {"size": 2, "table": [[0, 1], [1, 0]')
    code, _, err = run(capsys, "forest", path, "ab")
    assert code == 3 and "bad JSON" in err


# letters must be distinct one-character strings, and delta, matrices and
# letters JSON objects; each payload below loaded (or half loaded) before
INT_LETTER_CPLC = {"alphabet": [0], "terms": [{"coef": 1, "factors": [
    {"alphabet": [0], "states": 1, "initial": 0, "accepting": [0], "delta": [[0]]}]}]}
LIST_DELTA_CPLC = {"alphabet": ["a"], "terms": [{"coef": 1, "factors": [
    {"alphabet": ["a"], "states": 1, "initial": 0, "accepting": [0], "delta": [[0]]}]}]}
MULTI_LETTER_LINREP = {"alphabet": ["ab"], "initial": ["1"], "final": ["1"],
                       "matrices": {"ab": [["1"]]}}
LIST_MATRICES_LINREP = {"alphabet": [0], "initial": ["1"], "final": ["1"],
                        "matrices": [[["1"]]]}
LIST_LETTERS_MORPHISM = {"monoid": {"size": 1, "table": [[0]], "unit": 0},
                         "letters": [[0, 0], ["a", 0]]}
MULTI_LETTER_MORPHISM = {"monoid": {"size": 1, "table": [[0]], "unit": 0},
                         "letters": {"ab": 0}}


@pytest.mark.parametrize("payload, argv", [
    (INT_LETTER_CPLC, ["compile", "{f}"]),
    (LIST_DELTA_CPLC, ["compile", "{f}"]),
    (MULTI_LETTER_LINREP, ["eval", "{f}"]),
    (LIST_MATRICES_LINREP, ["eval", "{f}"]),
    (LIST_LETTERS_MORPHISM, ["forest", "{f}", "a"]),
    (MULTI_LETTER_MORPHISM, ["forest", "{f}", "a"]),
])
def test_malformed_json_letters_exit_3(files, capsys, payload, argv):
    path = files("letters.json", json.dumps(payload))
    code, out, err = run(capsys, *(a.replace("{f}", path) for a in argv))
    assert code == 3 and out == "" and "input error" in err


def test_pattern_verification_error_is_undecided(files, capsys, monkeypatch):
    from zpoly import analysis

    def unstable(self, pattern, k):
        raise analysis.PatternVerificationError("family did not stabilize")

    monkeypatch.setattr(analysis._Family, "fit", unstable)
    path = files("wa.zexpr", COUNT_A_ZEXPR)
    for command in ("growth", "pump"):
        code, out, _ = run(capsys, command, path)
        assert code == 2 and "undecided: family did not stabilize" in out


# ---------------------------------------------------------------------------
# out-of-range options and usage errors exit 3


@pytest.mark.parametrize("argv", [
    ["spectrum", "{f}", "--length-bound", "-1"],
    ["spectrum", "{f}", "--samples", "-3", "--length-bound", "9"],
    ["spectrum", "{f}", "--samples", "0"],
    ["rt", "{f}", "--max-states", "-1"],
    ["rt", "{f}", "--max-states", "0"],
    ["rt", "{f}", "-k", "-1"],
    ["equiv", "{f}", "{f}", "--mod", "-2"],
    *(["growth", "{f}", flag, "-1"] for flag in (
        "--budget-pump-len", "--budget-connector-len", "--budget-sample-len",
        "--budget-samples", "--budget-max-patterns")),
])
def test_out_of_range_option_exits_3(files, capsys, argv):
    path = files("wa.zexpr", COUNT_A_ZEXPR)
    code, out, err = run(capsys, *(a.replace("{f}", path) for a in argv))
    assert code == 3 and out == "" and "must be at least" in err


def test_mod_minus_one_still_means_exact(files, capsys):
    f = files("wa.zexpr", COUNT_A_ZEXPR)
    g = files("twice.zexpr", "alphabet = a b\n2 * ind((a|b)*a) . ind((a|b)*)\n")
    assert run(capsys, "equiv", f, f, "--mod", "-1")[0] == 0
    assert run(capsys, "equiv", f, g, "--mod", "-1")[0] == 1


@pytest.mark.parametrize("argv", [["growth"], ["growth", "x.zexpr", "--bogus"],
                                  ["growth", "x.zexpr", "--certified"], ["nope"],
                                  ["spectrum", "x.zexpr", "--samples", "many"]])
def test_usage_errors_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "input error" in err


# ---------------------------------------------------------------------------
# library errors that leave the question open exit 2


def test_monoid_too_large_is_undecided(files, capsys, monkeypatch):
    from zpoly import analysis, lang

    def too_large(f, cap=100000):
        raise lang.MonoidTooLarge("monoid closure exceeded cap %d" % cap)

    monkeypatch.setattr(analysis, "product_monoid", too_large)
    path = files("wa.zexpr", COUNT_A_ZEXPR)
    code, out, _ = run(capsys, "growth", path)
    assert code == 2 and "undecided: monoid closure exceeded" in out


DEEP = {   # name -> (text, word, value, growth degree): input nested 3000 deep
    "regex.zexpr": ("alphabet = a\nind(" + "(" * 3000 + "a" + ")" * 3001 + "\n", "a", 1, 0),
    "parentheses.zexpr": ("alphabet = a\n" + "(" * 3000 + "ind(a)" + ")" * 3000 + "\n",
                          "a", 1, 0),
    "sums.zexpr": ("alphabet = a\n" + "(ind(a) + " * 3000 + "ind(a)" + ")" * 3000 + "\n",
                   "a", 3001, 0),
    "parentheses.zmso": ("alphabet = a b\ncount[x] " + "(" * 3000 + "a(x)" + ")" * 3000 + "\n",
                         "aba", 2, 1),
    "negations.zmso": ("alphabet = a b\ncount[x] " + "!(" * 3000 + "a(x)" + ")" * 3000 + "\n",
                       "aba", 2, 1),
    "exists.zmso": ("alphabet = a b\ncount[x] " + "exists y. " * 3000 + "a(x)\n", "aba", 2, 1),
    "conjunctions.zmso": ("alphabet = a b\ncount[x] " + "(a(x) & " * 3000 + "a(x)"
                          + ")" * 3000 + "\n", "aba", 2, 1),
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_input_nested_past_the_recursion_limit_is_decided(files, capsys, name):
    """Parentheses, right-nested '+' and '&', '!(' and quantifiers nested
    3000 deep, past the interpreter's recursion limit, are read and folded
    with explicit stacks."""
    text, word, value, degree = DEEP[name]
    path = files(name, text)
    assert run(capsys, "eval", path, word) == (0, "%d\n" % value, "")
    code, out, _ = run(capsys, "growth", path)
    assert code == 0 and out.startswith("degree %d\n" % degree)
    if name == "regex.zexpr":
        code, out, _ = run(capsys, "starfree", path)
        assert code == 0 and out.startswith("star-free\n")


FLAT_CHAINS = {   # name -> (text, word, value, whether growth reads degree 0 on it)
    "union.zexpr": ("alphabet = a\nind(" + "|".join(["a"] * 3000) + ")\n", "a", 1, True),
    "concat.zexpr": ("alphabet = a\nind(" + "()" * 3000 + "a)\n", "a", 1, True),
    "sum.zexpr": ("alphabet = a\n" + " + ".join(["ind(a)"] * 3000) + "\n", "a", 3000, True),
    "conjunction.zmso": ("alphabet = a b\ncount[x] " + " & ".join(["a(x)"] * 3000) + "\n",
                         "aba", 2, False),
    "implication.zmso": ("alphabet = a b\ncount[x] " + " -> ".join(["a(x)"] * 3000) + "\n",
                         "aba", 3, False),
    "negation.zmso": ("alphabet = a b\ncount[x] " + "!" * 3000 + "a(x)\n", "aba", 2, False),
    "stars.zexpr": ("alphabet = a\nind(a" + "*" * 3000 + ")\n", "aa", 1, True),
    "complements.zexpr": ("alphabet = a\nind(" + "!" * 3000 + "a)\n", "a", 1, True),
    "minus.zexpr": ("alphabet = a\n" + "- " * 3000 + "ind(a)\n", "a", 1, True),
}


@pytest.mark.parametrize("name", sorted(FLAT_CHAINS))
def test_long_flat_chains_are_folded_without_recursion(files, capsys, name):
    """3000 operands in one flat chain of '|', concatenation, '+', '&' or
    '->', and 3000 prefix or postfix operators in a run ('!', '*', unary
    '-'), are read and folded one node at a time, past the interpreter's
    recursion limit."""
    text, word, value, degree_zero = FLAT_CHAINS[name]
    path = files(name, text)
    assert run(capsys, "eval", path, word) == (0, "%d\n" % value, "")
    if degree_zero:
        code, out, _ = run(capsys, "growth", path)
        assert code == 0 and out == "degree 0\n"


def test_budget_flags_default_to_the_search_budget():
    for command in ("equiv", "growth", "rt", "starfree", "pump"):
        inputs = ["f", "g"] if command == "equiv" else ["f"]
        assert make_budget(build_parser().parse_args([command, *inputs])) == SearchBudget()


# ---------------------------------------------------------------------------
# fuzzing: mutated inputs never escape as exceptions


SEED_INPUTS = [(".zexpr", t) for t in (SIGNED_ZEXPR, COUNT_A_ZEXPR, A_ASTAR_ZEXPR, STAR_ZEXPR,
                                      "alphabet = a b\n2 * ind(a*) . (ind(b) - 1) + star(ind(ab))\n")]
SEED_INPUTS += [(".zmso", t) for t in (PAIRS_ZMSO, POWERSET_ZMSO,
                                      "alphabet = a b\ncount[x] !a(x) & !(exists y. y < x & b(y))\n",
                                      "alphabet = ab\ncount[x, Y] x in Y & (exists z. z = x)\n")]
TOKENS = ["a", "b", "c", "(", ")", "*", "|", "&", "!", ".", "+", "-", "=", "<", ",",
          "[", "]", " ", "\n", "#", "0", "3", "ind(", "star(", "count[", "exists ",
          "x", "X", "in", "alphabet", "∅", "true"]


@st.composite
def mutated_inputs(draw):
    """A seed input with up to four token insertions, deletions or
    replacements at drawn offsets."""
    suffix, text = draw(st.sampled_from(SEED_INPUTS))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = i + draw(st.integers(0, 3))
        text = text[:i] + draw(st.sampled_from(TOKENS + [""])) + text[j:]
    return suffix, text


@settings(max_examples=300, deadline=None)
@example((".zexpr", IMPROPER_STAR_ZEXPR), ["eval", "{f}", "aa"])
@example((".zexpr", IMPROPER_STAR_ZEXPR), ["compile", "{f}"])
@given(mutated_inputs(),
       st.sampled_from([["compile", "{f}"], ["compile", "{f}", "--target", "linrep"],
                        ["compile", "{f}", "--target", "cplc"], ["eval", "{f}"],
                        ["eval", "{f}", "ab"], ["eval", "{f}", "aab"], ["eval", "{f}", "ac"]]))
def test_mutated_inputs_exit_0_or_3(source, argv):
    suffix, text = source
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input" + suffix)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{f}", path) for a in argv])
    assert code in (0, 3), (text, argv, code, err.getvalue())


# mutated JSON payloads: linear representations, Cauchy combinations, morphisms

FUNCTION_JSON = [LINREP, *(cplc.expression_to_cplc(*cplc.parse_expression(t)).to_json()
                           for t in (COUNT_A_ZEXPR, SIGNED_ZEXPR)),
                 INT_LETTER_CPLC, LIST_DELTA_CPLC, MULTI_LETTER_LINREP, LIST_MATRICES_LINREP]
MORPHISM_SEEDS = [json.loads(MORPHISM_JSON), json.loads(ZERO_X_JSON),
                  LIST_LETTERS_MORPHISM, MULTI_LETTER_MORPHISM]
JSON_VALUES = [0, 1, -1, 2, 3, 1.5, "1", "-2", "1/2", "1/0", "x", "a", "ab", "", None, True,
               [], {}, [0], [[1]], ["a", "a"], ["a", "b", "c"], {"a": 0}]


def json_value():
    return st.sampled_from(JSON_VALUES).map(copy.deepcopy)


@st.composite
def mutated_payload(draw, node):
    """`node` with one entry, at a drawn depth, deleted, replaced by a drawn
    value, or renamed (for object keys)."""
    if not isinstance(node, (dict, list)) or not node:
        return draw(json_value())
    key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    op = draw(st.sampled_from(["descend"] * 4 + ["delete", "replace", "rename"]))
    if op == "descend":
        node[key] = draw(mutated_payload(node[key]))
    elif op == "delete":
        del node[key]
    elif op == "replace" or isinstance(node, list):
        node[key] = draw(json_value())
    else:
        node[draw(st.sampled_from(["a", "b", "c", "ab", "", "1"]))] = node.pop(key)
    return node


@st.composite
def mutated_json(draw, seeds):
    data = copy.deepcopy(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 3))):
        data = draw(mutated_payload(data))
    return json.dumps(data)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([["compile", "{f}"], ["compile", "{f}", "--target", "linrep"],
                        ["minimize", "{f}"], ["eval", "{f}"], ["eval", "{f}", "abba"],
                        ["equiv", "{f}", "{f}"], ["spectrum", "{f}"], ["growth", "{f}"],
                        ["rt", "{f}"], ["starfree", "{f}"], ["pump", "{f}"],
                        ["forest", "{f}", "abaab"]]).flatmap(
    lambda argv: st.tuples(mutated_json(MORPHISM_SEEDS if argv[0] == "forest" else FUNCTION_JSON),
                           st.just(argv))))
def test_mutated_json_never_escapes_main(source):
    """No exception escapes `main`, and a payload that the loader rejects
    exits 3."""
    text, argv = source
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{f}", path) for a in argv])
        try:
            (load_morphism if argv[0] == "forest" else load_function)(path)
            rejected = False
        except InputError:
            rejected = True
    assert code in (0, 1, 2, 3), (text, argv, code, err.getvalue())
    assert code == 3 or not rejected, (text, argv, code, err.getvalue())
