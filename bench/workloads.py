"""Seeded job lists for the three workloads.

A job list is built from the seed alone; zpoly only ever sees the
generated texts and files.  Each job has a timed `run(lib)` returning a row
(verdict, counts, exit code) and an untimed `check(row)` that compares the
answer against `reference`, never against zpoly output recorded earlier.

Where the seed varies a job it does so in ways that keep the work of a
pass steady (letters, coefficients, overall scale, words, job order), so
run-to-run spread measures the program rather than the draw.  The heavy
jobs named `baseline.*` are the fixed ROADMAP baseline functions.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

# The regex pool of the ROADMAP.md baseline; all but (aa|b)* denote
# star-free languages.
POOL = ("(a|b)*a", "(a|b)*b", "a*", "b(a|b)*", "(ab)*", "(a|b)*ab(a|b)*",
        "(aa|b)*", "a(a|b)*b")
NOT_STAR_FREE = frozenset(["(aa|b)*"])

SIGNED_LENGTH = ((1, ("a(aa)*", "a(aa)*")), (1, ("(aa)*", "(aa)*")),
                 (-1, ("(aa)*", "a(aa)*")), (-1, ("a(aa)*", "(aa)*")),
                 (1, ("a(aa)*",)), (-1, ("(aa)*",)))
COUNT_A = ((1, ("(a|b)*a", "(a|b)*")),)
I_TIMES_J = ((1, ("a*a", "a*b*b", "b*")),)
WA_TIMES_WB = ((1, ("(a|b)*a", "(a|b)*b", "(a|b)*")),
               (1, ("(a|b)*b", "(a|b)*a", "(a|b)*")))
LEVEL3 = "alphabet = a b\ncount[x,y,z] a(x)&b(y)&a(z)&x<y&y<z\n"
SUCC = "alphabet = a b\ncount[x,y] succ(x,y)&a(x)&a(y)\n"

# Two-term level-1 combinations drawn from POOL (as in big_function, first
# coefficient 1), kept fixed and scaled by the seed: the cost of a
# residual transducer varies 1000-fold between draws (0.001 s to 20 s),
# while scaling leaves it unchanged.  Draws above ~5 s were left out, since
# every pass repeats every job.  Five of them currently end undecided.
RESIDUAL_SHAPES = (
    ((1, ("(a|b)*a", "(aa|b)*")), (-2, ("b(a|b)*", "(aa|b)*"))),
    ((1, ("b(a|b)*", "a(a|b)*b")), (1, ("a(a|b)*b", "b(a|b)*"))),
    ((1, ("b(a|b)*", "(a|b)*a")), (1, ("b(a|b)*", "b(a|b)*"))),
    ((1, ("(a|b)*a", "(ab)*")), (-1, ("(aa|b)*", "a*"))),
    ((1, ("(a|b)*b", "(a|b)*ab(a|b)*")), (-2, ("(a|b)*a", "(a|b)*a"))),
    ((1, ("(a|b)*a", "a(a|b)*b")), (2, ("(ab)*", "b(a|b)*"))),
    ((1, ("(aa|b)*", "(a|b)*b")), (-2, ("a*", "(ab)*"))),
    ((1, ("a*", "a*")), (-2, ("(a|b)*b", "(ab)*"))),
    ((1, ("(a|b)*b", "(a|b)*b")), (-2, ("(a|b)*a", "a(a|b)*b"))),
    ((1, ("(a|b)*a", "(aa|b)*")), (1, ("a*", "b(a|b)*"))),
    ((1, ("a*", "(ab)*")), (1, ("a*", "(ab)*"))),
    ((1, ("(a|b)*a", "a(a|b)*b")), (2, ("(a|b)*ab(a|b)*", "b(a|b)*"))),
)
# Level-0 indicators with 4-5 states, each also with a and b swapped.  The
# eight cost 0.1-0.5 s and form the middle of the job-time distribution, so
# job_p50_s is the median of several samples taken across the pass.
INDICATORS = (("(a|b)*ab(a|b)*b", True), ("(a|b)*aab", True),
              ("(aa)*b", False), ("b(aa)*b", False))

EXIT_CODES = (0, 1, 2, 3)


@dataclass
class Job:
    name: str
    run: Callable            # run(lib) -> row dict; timed
    check: Callable          # check(row) -> list of wrong-answer messages; untimed
    questions: int = 1       # decision questions the job asks (0 for probes)


@dataclass
class Workload:
    jobs: list
    files: dict = field(default_factory=dict)   # file name -> text

    def write_files(self, directory):
        os.makedirs(directory, exist_ok=True)
        for fname, text in self.files.items():
            with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# rendering


def zexpr(letters, terms) -> str:
    return "alphabet = %s\n%s\n" % (" ".join(letters), _terms_text(terms))


def _product(regexes):
    return " . ".join("ind(%s)" % r for r in regexes)


def _terms_text(terms):
    out = []
    for i, (coef, regexes) in enumerate(terms):
        body = "%d * %s" % (abs(coef), _product(regexes))
        if i == 0:
            out.append(body if coef > 0 else "-" + body)
        else:
            out.append(("+ " if coef > 0 else "- ") + body)
    return " ".join(out)


def zexpr_regrouped(letters, terms, rng) -> str:
    """The same function written differently: terms shuffled and grouped by
    their first factor with the Cauchy product distributed over the sum."""
    groups = {}
    for coef, regexes in terms:
        groups.setdefault(regexes[0], []).append((coef, regexes[1:]))
    parts = []
    for first, rest in groups.items():
        rng.shuffle(rest)
        if all(rs for _, rs in rest):
            inner = _terms_text(rest)
            parts.append("ind(%s) . (%s)" % (first, inner))
        else:
            parts.append("(%s)" % _terms_text([(c, (first,) + rs) for c, rs in rest]))
    rng.shuffle(parts)
    return "alphabet = %s\n%s\n" % (" ".join(letters), " + ".join(parts))


def scaled(terms, s):
    return tuple((s * c, regexes) for c, regexes in terms)


def formula_text(phi) -> str:
    tag = phi[0]
    if tag == "letter":
        return "%s(%s)" % (phi[1], phi[2])
    if tag == "less":
        return "%s < %s" % (phi[1], phi[2])
    if tag == "succ":
        return "succ(%s, %s)" % (phi[1], phi[2])
    if tag == "in":
        return "%s in %s" % (phi[1], phi[2])
    if tag == "not":
        return "!(%s)" % formula_text(phi[1])
    if tag in ("and", "or"):
        sym = " & " if tag == "and" else " | "
        return "(%s%s%s)" % (formula_text(phi[1]), sym, formula_text(phi[2]))
    if tag in ("exists", "forall"):
        return "%s %s. (%s)" % (tag, phi[1], formula_text(phi[2]))
    raise ValueError(tag)


def zmso(letters, variables, phi) -> str:
    return "alphabet = %s\ncount[%s] %s\n" % (" ".join(letters), ", ".join(variables),
                                             formula_text(phi))


def conj(*parts):
    node = parts[0]
    for p in parts[1:]:
        node = ("and", node, p)
    return node


def random_word(rng, letters, n) -> str:
    return "".join(rng.choice(letters) for _ in range(n))


def short_words(rng, letters, count, max_len) -> list:
    words = {""} | set(letters)
    count = min(count, sum(len(letters) ** k for k in range(max_len + 1)))
    while len(words) < count:
        words.add(random_word(rng, letters, rng.randint(1, max_len)))
    return sorted(words, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# seeded function families


def big_function():
    """The 12-term seed-1 function of the ROADMAP.md baseline (raw dim 57,
    minimal dim 14)."""
    rng = random.Random(1)
    terms = []
    for i in range(12):
        pair = (rng.choice(POOL), rng.choice(POOL))
        terms.append((1 if i == 0 else (rng.randint(-2, 2) or 1), pair))
    return tuple(terms)


def pool_combination(rng, n_terms):
    return tuple(((1 if i == 0 else (rng.randint(-2, 2) or 1)),
                  (rng.choice(POOL), rng.choice(POOL))) for i in range(n_terms))


def star_free_regex(rng, letters):
    """Built from letters, unions of letters and A*: star-free by construction."""
    sigma = "(%s)*" % "|".join(letters)
    pieces = [rng.choice(letters) for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randint(1, 2)):
        pieces.insert(rng.randint(0, len(pieces)), sigma)
    pieces.append(rng.choice(letters + ["(%s|%s)" % (letters[0], letters[1])]))
    return "".join(pieces)


def modular_regex(rng, letters):
    """u (pp)* v: u p^n v is in the language iff n is even, so the syntactic
    monoid is not aperiodic and the language is not star-free."""
    p = rng.choice(letters)
    others = [x for x in letters if x != p]
    u = rng.choice(others) + random_word(rng, letters, rng.randint(0, 1))
    v = random_word(rng, letters, rng.randint(0, 1)) + rng.choice(others)
    return "%s(%s%s)*%s" % (u, p, p, v)


def chain_formula(rng, letters, n_vars):
    """p1(x1) & ... & pk(xk) with x_i < x_{i+1} (or succ), and an optional
    `exists` clause."""
    names = ("x", "y", "z", "t")[:n_vars]
    parts = [("letter", rng.choice(letters), v) for v in names]
    for v, w in zip(names, names[1:]):
        parts.append(("succ", v, w) if rng.random() < 0.3 else ("less", v, w))
    if rng.random() < 0.5:
        parts.append(("exists", "u", conj(("less", names[-1], "u"),
                                           ("letter", rng.choice(letters), "u"))))
    return names, conj(*parts)


# ---------------------------------------------------------------------------
# running zpoly


def call_cli(lib, argv):
    """zpoly.cli.main in-process with output captured."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main([a.replace("{dir}", lib.workdir) for a in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:   # a traceback is never an answer
            failure = "%s: %s" % (type(exc).__name__, str(exc)[:120])
    return code, out.getvalue(), failure


def cli_job(name, argv, expect, check=None, decides=True):
    """A CLI call owed exit code `expect`.  When `decides`, exit 0/1 is a
    claim about the input, and the opposite one is a wrong answer; otherwise
    a missed exit code is only a failure.  `check` runs on every 0/1 exit."""
    def run(lib):
        code, stdout, failure = call_cli(lib, argv)
        if failure is None and code not in EXIT_CODES:
            failure = "exit code %r outside the 0/1/2/3 contract" % (code,)
        if failure is None and code != expect:
            failure = "exit %r, expected %d" % (code, expect)
        row = {"exit": code, "verdict": "exit %s" % code,
               "definite": int(expect != 3 and code in (0, 1)), "_stdout": stdout}
        if failure:
            row["failure"] = failure
        return row

    def check_row(row):
        wrong = []
        if row["exit"] not in (0, 1) or expect not in (0, 1):
            return wrong
        if decides and row["exit"] != expect:
            wrong.append("%s: answered exit %d, expected %d" % (name, row["exit"], expect))
        if check is not None:
            wrong.extend("%s: %s" % (name, msg) for msg in check(row))
        return wrong

    return Job(name, run, check_row, questions=0 if expect == 3 else 1)


def build_function(lib, text):
    """A Cplc from a .zexpr or .zmso text, through the public parsers."""
    if text.split("\n", 1)[1].lstrip().startswith("count"):
        alphabet, variables, phi = lib.mso.parse_count(text)
        return lib.mso.count_to_cplc(phi, variables, alphabet)
    alphabet, tree = lib.cplc.parse_expression(text)
    return lib.cplc.expression_to_cplc(alphabet, tree)


# ---------------------------------------------------------------------------
# frontend


def frontend(seed, smoke=False):
    rng = random.Random("frontend:%d" % seed)
    ab = ["a", "b"]
    files = {}
    jobs = []
    functions = {}   # file name -> reference value function

    def add_zexpr(fname, terms, text=None, letters=ab):
        files[fname] = text or zexpr(letters, terms)
        functions[fname] = lambda w, t=terms: ref.combination_value(t, w)

    def add_zmso(fname, letters, variables, phi):
        files[fname] = zmso(letters, variables, phi)
        functions[fname] = lambda w: ref.count_valuations(phi, variables, w)

    def path(fname):
        return "{dir}/" + fname

    def compile_check(fname):
        words = short_words(rng, ab, 10, 7)

        def check(row):
            data = json.loads(row["_stdout"])
            row["dims"] = [data["dim"]]
            return ["compiled value %s on %r, reference %s"
                    % (ref.linrep_value(data, w), w, functions[fname](w))
                    for w in words if ref.linrep_value(data, w) != functions[fname](w)]
        return check

    def eval_check(fname, word):
        def check(row):
            want = functions[fname](word)
            got = row["_stdout"].strip()
            return [] if got == str(want) else ["eval printed %s, reference %s" % (got, want)]
        return check

    def equiv_check(f1, f2):
        def check(row):
            if row["exit"] != 1:
                return []
            word = ast.literal_eval(row["_stdout"].rsplit(":", 1)[1].strip())
            if functions[f1](word) == functions[f2](word):
                return ["witness %r does not separate the two functions" % word]
            return []
        return check

    def minimize_check(fname):
        def check(row):
            lines = row["_stdout"].splitlines()
            dim = int(lines[0].split()[1])
            rows_w = ast.literal_eval(lines[1].split(":", 1)[1].strip())
            cols_w = ast.literal_eval(lines[2].split(":", 1)[1].strip())
            row["dims"] = [dim]
            hankel = [[functions[fname](u + v) for v in cols_w] for u in rows_w] or [[]]
            if len(cols_w) != dim or (dim and ref.rank(hankel) != dim):
                return ["Hankel block on the printed basis words has rank %d, not %d"
                        % (ref.rank(hankel) if dim else 0, dim)]
            return []
        return check

    def forest_check(word):
        def check(row):
            brackets = row["_stdout"].splitlines()[0]
            if ref.brackets_balanced(brackets) and ref.forest_yield(brackets) == word:
                return []
            return ["forest does not bracket the input word"]
        return check

    # Cauchy combinations from the pool
    big = big_function()
    add_zexpr("big.zexpr", big)
    n_small = 1 if smoke else 3
    # fixed draws, scaled by the seed: the work of equiv and minimize
    # depends on the draw far more than on the scale
    small = [scaled(pool_combination(random.Random(k), 3), rng.choice([-2, -1, 1, 2]))
             for k in range(2, 2 + n_small)]
    for i, terms in enumerate(small):
        add_zexpr("s%d.zexpr" % i, terms)
        add_zexpr("s%d_eq.zexpr" % i, terms, zexpr_regrouped(ab, terms, rng))
        extra = (rng.choice([-2, -1, 1, 2]), (rng.choice(POOL),))
        add_zexpr("s%d_ne.zexpr" % i, terms + (extra,))

    # counting formulas: 2-4 first-order variables over 2-3 letters, and
    # second-order ones
    arities = (2,) if smoke else (2, 2, 3, 3, 4)
    formulas = []
    for i, k in enumerate(arities):
        letters = ab if i % 2 == 0 else ["a", "b", "c"]
        names, phi = chain_formula(rng, letters, k)
        add_zmso("f%d.zmso" % i, letters, names, phi)
        formulas.append(("f%d.zmso" % i, letters, k))
    so_letter = rng.choice(ab)
    add_zmso("so.zmso", ab, ("X",),
             ("forall", "x", ("or", ("not", ("in", "x", "X")), ("letter", so_letter, "x"))))

    # morphism: transformations of 3 states under 2-3 letters
    m_letters = ab if smoke else rng.choice([ab, ["a", "b", "c"]])
    maps = {a: tuple(rng.randrange(3) for _ in range(3)) for a in m_letters}
    table, images = ref.transformation_monoid(maps)
    files["morphism.json"] = json.dumps({"monoid": {"size": len(table), "table": table,
                                                    "unit": 0}, "letters": images})

    # malformed inputs: the exit-code contract owes each of them exit 3
    lin = {"alphabet": ab, "dim": 2, "initial": ["1", "0"], "final": ["0", "1"],
           "matrices": {"a": [["1", "1"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]]}}
    ragged = json.loads(json.dumps(lin))
    ragged["matrices"][rng.choice(ab)][1] = ["1"]
    missing = json.loads(json.dumps(lin))
    del missing["matrices"][rng.choice(ab)]
    nonnum = json.loads(json.dumps(lin))
    nonnum["matrices"][rng.choice(ab)][0][rng.randrange(2)] = "x%d" % rng.randrange(10)
    bad_dfa = {"alphabet": ab, "states": 2, "initial": 0, "accepting": [1],
               "delta": {"a": [1, 1], "b": [0, 1]}}
    bad_dfa["delta"][rng.choice(ab)][rng.randrange(2)] = 2 + rng.randrange(5)
    files["ragged.json"] = json.dumps(ragged)
    files["missing.json"] = json.dumps(missing)
    files["nonnum.json"] = json.dumps(nonnum)
    files["baddfa.json"] = json.dumps({"alphabet": ab, "level": 0,
                                       "terms": [{"coef": 1, "factors": [bad_dfa]}]})
    files["badmorph.json"] = '{"monoid": {"size": 2, "table": [[0, 1], [1, 0]'

    # -- jobs ----------------------------------------------------------------
    if not smoke:
        jobs.append(cli_job("baseline.minimize_dim57",
                            ["compile", path("big.zexpr"), "--target", "linrep", "--minimize"],
                            0, compile_check("big.zexpr")))
        jobs.append(cli_job("spectrum.big", ["spectrum", path("big.zexpr")], 0))
        # Cplc.eval costs the same on every word of a length, so these eight
        # form the middle of the job-time distribution: job_p50_s is the
        # median of several samples taken across the pass, not of one job.
        for i in range(8):
            word = random_word(rng, ab, 300)
            jobs.append(cli_job("eval.big%d" % i, ["eval", path("big.zexpr"), word], 0,
                                eval_check("big.zexpr", word)))
    for i in range(n_small):
        f = "s%d.zexpr" % i
        jobs.append(cli_job("compile.s%d" % i,
                            ["compile", path(f), "--target", "linrep", "--minimize"],
                            0, compile_check(f)))
        word = random_word(rng, ab, 100 if smoke else 700)
        jobs.append(cli_job("eval.s%d" % i, ["eval", path(f), word], 0, eval_check(f, word)))
        jobs.append(cli_job("equiv.s%d_equal" % i, ["equiv", path(f), path("s%d_eq.zexpr" % i)],
                            0, equiv_check(f, "s%d_eq.zexpr" % i)))
        jobs.append(cli_job("equiv.s%d_distinct" % i,
                            ["equiv", path(f), path("s%d_ne.zexpr" % i)],
                            1, equiv_check(f, "s%d_ne.zexpr" % i)))
    jobs.append(cli_job("minimize.s0", ["minimize", path("s0.zexpr"), "--format", "text"],
                        0, minimize_check("s0.zexpr")))
    jobs.append(cli_job("spectrum.s0", ["spectrum", path("s0.zexpr")], 0))
    # word lengths keep the reference's n^k valuation enumeration small
    eval_len = {2: 60, 3: 24, 4: 12}
    for fname, letters, k in formulas:
        word = random_word(rng, letters, 12 if smoke else eval_len[k])
        stem = fname.split(".")[0]
        jobs.append(cli_job("eval.%s" % stem, ["eval", path(fname), word], 0,
                            eval_check(fname, word)))
    jobs.append(cli_job("minimize.f0", ["minimize", path("f0.zmso"), "--format", "text"],
                        0, minimize_check("f0.zmso")))
    so_word = random_word(rng, ab, 10)
    jobs.append(cli_job("eval.so", ["eval", path("so.zmso"), so_word], 0,
                        eval_check("so.zmso", so_word)))
    # 2^{|w|_p} has the eigenvalue 2, outside {0} and the roots of unity
    jobs.append(cli_job("spectrum.so", ["spectrum", path("so.zmso")], 1))
    for i in range(1 if smoke else 2):
        word = random_word(rng, m_letters, 50 if smoke else 1000)
        # Simon's theorem gives a forest of depth <= 3|M|; a deeper one is
        # a failure of the construction, not a wrong claim about the word
        jobs.append(cli_job("forest.m%d" % i, ["forest", path("morphism.json"), word], 0,
                            forest_check(word), decides=False))
    bad_word = list(random_word(rng, ab, 8))
    bad_word.insert(rng.randrange(9), "z")
    probes = [("ragged_matrix", ["eval", path("ragged.json"), "ab"]),
              ("missing_letter_matrix", ["eval", path("missing.json"), "ab"]),
              ("non_numeric_entry", ["eval", path("nonnum.json"), "ab"]),
              ("delta_out_of_range", ["eval", path("baddfa.json"), "ab"]),
              ("letter_outside_alphabet", ["eval", path("s0.zexpr"), "".join(bad_word)]),
              ("non_json_morphism", ["forest", path("badmorph.json"), "ab"])]
    for name, argv in probes:
        jobs.append(cli_job("probe.%s" % name, argv, 3))
    rng.shuffle(jobs)
    return Workload(jobs, files)


# ---------------------------------------------------------------------------
# growth


def growth_job(name, text, degree):
    """growth_degree on a function whose degree is known by construction."""
    def run(lib):
        verdict = lib.analysis.growth_degree(build_function(lib, text))
        return {"verdict": "degree %d" % verdict.degree,
                "degree": verdict.degree,
                "budget_exhausted": verdict.budget_exhausted,
                "patterns_tried": verdict.patterns_tried,
                "definite": int(not verdict.budget_exhausted)}

    def check(row):
        if "degree" not in row:
            return []
        if not row["budget_exhausted"] and row["degree"] != degree:
            return ["%s: certain degree %d, true degree %d" % (name, row["degree"], degree)]
        if row["budget_exhausted"] and row["degree"] > degree:
            return ["%s: lower bound %d above the true degree %d"
                    % (name, row["degree"], degree)]
        return []

    return Job(name, run, check)


def growth(seed, smoke=False):
    rng = random.Random("growth:%d" % seed)
    ab, abc = ["a", "b"], ["a", "b", "c"]
    jobs = []
    for i in range(2 if smoke else 3):
        regex = star_free_regex(rng, ab) if i % 2 == 0 else modular_regex(rng, ab)
        jobs.append(growth_job("deg0.indicator%d" % i, zexpr(ab, ((1, (regex,)),)), 0))
    p = rng.choice(ab)
    jobs.append(growth_job("deg1.count_%s" % p, zmso(ab, ("x",), ("letter", p, "x")), 1))
    jobs.append(growth_job("deg1.signed_length",
                           zexpr(["a"], scaled(SIGNED_LENGTH, rng.choice([-1, 1]))), 1))
    for i in range(0 if smoke else 2):
        letters = ab if i == 0 else abc
        phi = conj(("letter", rng.choice(letters), "x"),
                   ("exists", "y", conj(("less", "y", "x"),
                                        ("letter", rng.choice(letters), "y"))))
        jobs.append(growth_job("deg1.exists%d" % i, zmso(letters, ("x",), phi), 1))
    # The pattern search visits letters in alphabetical order, so the cost
    # of a <-chain depends on which letters it uses (0.03 s to 4 s); the
    # chains are a fixed set, except six p(x) & b(y) chains whose p the seed
    # draws (both choices cost about 0.2 s).  Those six form the middle of
    # the job-time distribution, so job_p50_s is the median of several
    # samples taken across the pass, not of one job.
    chains = [(ab, "a", "a")] if smoke else [
        (ab, "a", "a"), (ab, "b", "a"), (abc, "a", "a"), (abc, "b", "b"), (abc, "c", "c"),
        (abc, "a", "b")] + [(ab, rng.choice(ab), "b") for _ in range(6)]
    for i, (letters, p, q) in enumerate(chains):
        phi = conj(("letter", p, "x"), ("letter", q, "y"), ("less", "x", "y"))
        jobs.append(growth_job("deg2.chain%d_%s%s_over_%s" % (i, p, q, "".join(letters)),
                               zmso(letters, ("x", "y"), phi), 2))
    if not smoke:
        jobs.append(growth_job("deg2.wa_times_wb",
                               zexpr(ab, scaled(WA_TIMES_WB, rng.choice([-1, 1]))), 2))
        jobs.append(growth_job("deg2.i_times_j",
                               zexpr(ab, scaled(I_TIMES_J, rng.choice([-1, 1]))), 2))
        jobs.append(growth_job("baseline.growth_level3", LEVEL3, 3))
        jobs.append(growth_job("baseline.growth_succ_ab", SUCC, 1))
    rng.shuffle(jobs)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# residual


def residual_job(name, text, value, star_free=None, words=()):
    """residual_transducer(f, f.level) and star_free(f): two questions."""
    def run(lib):
        f = build_function(lib, text)
        row = {"level": f.level, "definite": 0}
        undecided = (lib.canon.UncertainConstruction, lib.canon.StateBudgetExceeded)
        try:
            machine = lib.canon.residual_transducer(f, f.level)
            row["n_states"] = machine.n_states
            row["definite"] += 1
            row["_machine"] = machine
        except undecided as exc:
            row["rt"] = type(exc).__name__
        try:
            verdict = lib.canon.star_free(f)
            row["star_free"] = verdict.star_free
            row["definite"] += 1
        except undecided as exc:
            row["star_free"] = type(exc).__name__
        row["verdict"] = "states %s, star-free %s" % (row.get("n_states", row.get("rt")),
                                                     row["star_free"])
        return row

    def check(row):
        wrong = []
        machine = row.get("_machine")
        if machine is not None:
            wrong.extend("%s: transducer gives %s on %r, reference %s"
                         % (name, machine.eval(w), w, value(w))
                         for w in words if machine.eval(w) != value(w))
        if star_free is not None and isinstance(row.get("star_free"), bool) \
                and row["star_free"] != star_free:
            wrong.append("%s: star_free %s, known %s" % (name, row["star_free"], star_free))
        return wrong

    return Job(name, run, check, questions=2)


def residual(seed, smoke=False):
    rng = random.Random("residual:%d" % seed)
    ab = ["a", "b"]
    jobs = []

    def add(name, letters, terms, star_free):
        words = short_words(rng, letters, 12, 6)
        jobs.append(residual_job(name, zexpr(letters, terms),
                                 lambda w: ref.combination_value(terms, w), star_free, words))

    for i, shape in enumerate(RESIDUAL_SHAPES[4:5] if smoke else RESIDUAL_SHAPES):
        terms = scaled(shape, rng.choice([-3, -2, -1, 1, 2, 3]))
        factors = {r for _, rs in terms for r in rs}
        # sums of Cauchy products of star-free indicators are star-free
        add("level1.pair%d" % i, ab, terms, True if not factors & NOT_STAR_FREE else None)
    swap = str.maketrans("ab", "ba")
    indicators = [(r.translate(t), sf) for r, sf in INDICATORS for t in ({}, swap)]
    for i, (regex, star_free) in enumerate(indicators[2:5] if smoke else indicators):
        add("level0.indicator%d" % i, ab, ((1, (regex,)),), star_free)
    s = rng.choice([-2, -1, 1, 2])
    add("level1.count_a", ab, scaled(COUNT_A, s), True)
    add("level1.signed_length", ["a"], scaled(SIGNED_LENGTH, s), False)
    if not smoke:
        add("level2.i_times_j", ab, scaled(I_TIMES_J, s), True)
        add("level2.wa_times_wb", ab, scaled(WA_TIMES_WB, s), True)
    rng.shuffle(jobs)
    return Workload(jobs)


WORKLOADS = {"frontend": frontend, "growth": growth, "residual": residual}
