"""Command line interface.

Exit codes: 0 success (or "yes" for decision commands), 1 definite "no",
2 undecided within budget, 3 malformed input (usage errors and out-of-range
options included).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import analysis, canon, cplc, forests, lang, mso, series
from .analysis import BudgetExhausted, PatternVerificationError, SearchBudget
from .canon import StateBudgetExceeded, UncertainConstruction
from .exact import char_poly, poly_text

EXIT_OK = 0
EXIT_NO = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 3


class InputError(ValueError):
    pass


class NotCauchy(InputError):
    """`what` needs a Cauchy combination but got the linear representation `rep`."""

    def __init__(self, what: str, rep):
        super().__init__("%s needs a polynomial-growth (Cauchy combination) "
                         "input, not a raw linear representation" % what)
        self.what = what
        self.rep = rep


# Questions about a polynomial-growth function: an exponential input is a
# definite no to each of them.
GROWTH_QUESTIONS = ("growth", "pump", "rt", "starfree")


# Library errors that leave a question open within the budget (exit 2).
UNDECIDED = (BudgetExhausted, PatternVerificationError, UncertainConstruction,
             StateBudgetExceeded, lang.MonoidTooLarge,
             RecursionError)   # forests: _forest, _smooth and _band recurse once per tree level


# ---------------------------------------------------------------------------
# input loading


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))


def load_function(path: str):
    """Returns ('cplc', Cplc) or ('linrep', LinRep)."""
    text = _read(path)
    if path.endswith(".zexpr"):
        try:
            alphabet, ast = cplc.parse_expression(text)
        except ValueError as exc:
            raise InputError(str(exc))
        if cplc.expression_uses_star(ast):
            return "linrep", cplc.expression_to_linrep(alphabet, ast)
        return "cplc", cplc.expression_to_cplc(alphabet, ast)
    if path.endswith(".zmso"):
        try:
            alphabet, variables, phi = mso.parse_count(text)
        except ValueError as exc:
            raise InputError(str(exc))
        if all(not mso.is_so(v) for v in variables):
            return "cplc", mso.count_to_cplc(phi, variables, alphabet)
        return "linrep", mso.count_to_linrep(phi, variables, alphabet)
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError("bad JSON in %s: %s" % (path, exc))
        if not isinstance(data, dict) or not {"matrices", "terms"} & data.keys():
            raise InputError("unrecognized JSON payload in %s" % path)
        try:
            if "matrices" in data:
                return "linrep", series.LinRep.from_json(data)
            return "cplc", cplc.Cplc.from_json(data)
        except ValueError as exc:
            raise InputError("%s: %s" % (path, exc))
    raise InputError("unknown input format (expected .zexpr, .zmso or .json): %s" % path)


def as_linrep(kind, value):
    return value.to_linrep() if kind == "cplc" else value


def need_cplc(kind, value, what: str):
    if kind != "cplc":
        raise NotCauchy(what, value)
    return value


def exponential_word(rep):
    """(word, polynomial) showing that `rep` grows exponentially, or None.

    In a minimal representation the vectors I mu(u) and mu(v) F span the
    space, so an eigenvalue of modulus > 1 of some mu(w) makes some
    f(u w^n v) grow exponentially.  The spectrum probe rejects an integral
    characteristic polynomial only when a Graeffe iterate of it breaks the
    binomial bound on its coefficients, which shows a root of modulus > 1
    (`exact.classify_roots`).  A rational one proves nothing
    (mu(a) = (1/2) is bounded)."""
    rep = series.minimize(rep)
    for word, _ in series.spectrum_probe(rep, "zero_union_unity").violations:
        p = char_poly(rep.word_matrix(word))
        if all(type(c) is int for c in p):
            return word, p
    return None


def parse_word(text: str, alphabet):
    word = tuple(text)
    for a in word:
        if a not in alphabet:
            raise InputError("letter %r not in the alphabet %s"
                             % (a, " ".join(map(str, alphabet))))
    return word


def make_budget(args) -> SearchBudget:
    return SearchBudget(
        pump_len=args.budget_pump_len,
        connector_len=args.budget_connector_len,
        sample_len=args.budget_sample_len,
        max_samples=args.budget_samples,
        max_patterns=args.budget_max_patterns,
        seed=args.seed,
    )


def at_least(least: int):
    """argparse type for an integer option with the smallest value `least`."""
    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (least, value))
        return value
    parse.__name__ = "int"   # argparse names the type in "invalid int value"
    return parse


def add_budget_flags(p: argparse.ArgumentParser):
    default = SearchBudget()
    p.add_argument("--budget-pump-len", type=at_least(0), default=default.pump_len)
    p.add_argument("--budget-connector-len", type=at_least(0), default=default.connector_len)
    p.add_argument("--budget-sample-len", type=at_least(0), default=default.sample_len)
    p.add_argument("--budget-samples", type=at_least(0), default=default.max_samples)
    p.add_argument("--budget-max-patterns", type=at_least(0), default=default.max_patterns)
    p.add_argument("--seed", type=int, default=default.seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_compile(args) -> int:
    kind, value = load_function(args.input)
    if args.target == "linrep":
        rep = as_linrep(kind, value)
        if args.minimize:
            rep = series.minimize(rep)
        print(rep.dumps())
        return EXIT_OK
    if args.target == "cplc":
        value = need_cplc(kind, value, "compile --target cplc")
        print(value.dumps())
        return EXIT_OK
    # auto: keep whatever the input naturally is
    print(value.dumps())
    return EXIT_OK


def cmd_eval(args) -> int:
    _, value = load_function(args.input)
    print(value.eval(parse_word(args.word, value.alphabet)))
    return EXIT_OK


def cmd_minimize(args) -> int:
    kind, value = load_function(args.input)
    rep, row_basis, col_basis = series.reduce_minimize(as_linrep(kind, value))
    if args.format == "text":
        print("dimension %d" % rep.dim)
        print("row basis words: %s" % ["".join(map(str, w)) for w in row_basis.words])
        print("column basis words: %s" % ["".join(map(str, w)) for w in col_basis.words])
    else:
        print(rep.dumps())
    return EXIT_OK


def cmd_equiv(args) -> int:
    kind1, v1 = load_function(args.input)
    kind2, v2 = load_function(args.input2)
    if args.mod is None or args.mod < 0:
        r1, r2 = as_linrep(kind1, v1), as_linrep(kind2, v2)
        witness = series.distinguishing_word(r1, r2)
        if witness is None:
            print("equivalent")
            return EXIT_OK
        print("distinct; distinguishing word: %r" % ("".join(map(str, witness)),))
        return EXIT_NO
    f = need_cplc(kind1, v1, "equiv --mod")
    g = need_cplc(kind2, v2, "equiv --mod")
    ok = analysis.equiv_mod_k(f, g, args.mod, make_budget(args))
    print("equivalent modulo growth degree %d" % args.mod if ok
          else "distinct modulo growth degree %d" % args.mod)
    return EXIT_OK if ok else EXIT_NO


def cmd_growth(args) -> int:
    kind, value = load_function(args.input)
    f = need_cplc(kind, value, "growth")
    verdict = analysis.growth_degree(f, make_budget(args))
    print("degree %d%s" % (verdict.degree,
                           " (budget exhausted: lower bound only)"
                           if verdict.budget_exhausted else ""))
    if verdict.witness is not None:
        print("witness pattern: %r" % (verdict.witness,))
        print("pattern polynomial: %r" % (verdict.witness_poly,))
    return EXIT_UNDECIDED if verdict.budget_exhausted else EXIT_OK


def cmd_rt(args) -> int:
    kind, value = load_function(args.input)
    f = need_cplc(kind, value, "rt")
    k = args.k if args.k is not None else f.level
    machine = canon.residual_transducer(f, k, make_budget(args), max_states=args.max_states)
    if args.format == "dot":
        print(machine.to_dot())
    elif args.format == "json":
        print(machine.dumps())
    else:
        print("%d states at level %d" % (machine.n_states, k))
        for q, (w, out) in enumerate(zip(machine.state_words, machine.outputs)):
            print("  state %d: word %r output %d"
                  % (q, "".join(map(str, w)), out))
        for (q, a), j in sorted(machine.delta.items(), key=lambda it: (it[0][0], str(it[0][1]))):
            print("  %d --%s--> %d  label %r" % (q, a, j, machine.labels[(q, a)]))
    return EXIT_OK


def cmd_starfree(args) -> int:
    kind, value = load_function(args.input)
    f = need_cplc(kind, value, "starfree")
    verdict = canon.star_free(f, make_budget(args))
    print("star-free" if verdict.star_free else "not star-free")
    print("reason: %s" % verdict.reason)
    if verdict.witness is not None:
        print("witness: %r" % (verdict.witness,))
    return EXIT_OK if verdict.star_free else EXIT_NO


def cmd_spectrum(args) -> int:
    kind, value = load_function(args.input)
    rep = series.minimize(as_linrep(kind, value))
    report = series.spectrum_probe(rep, args.mode, args.length_bound,
                                   args.samples, args.seed)
    print("checked %d word matrices (%s)" % (report.checked, report.mode))
    if report.ok:
        print("all spectra conform")
        return EXIT_OK
    for w, p in report.violations[:10]:
        print("violation on %r: characteristic polynomial %s"
              % ("".join(map(str, w)), p))
    return EXIT_NO


def load_morphism(path: str) -> lang.MonoidMorphism:
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise InputError("bad JSON in %s: %s" % (path, exc))
    try:
        mon = data["monoid"]
        monoid = lang.FiniteMonoid(mon["size"],
                                   tuple(tuple(r) for r in mon["table"]),
                                   mon["unit"])
        letters = data["letters"]
        if not isinstance(letters, dict):
            raise TypeError("letters must map letters to images")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed morphism JSON: %s" % exc)
    n = monoid.size if type(monoid.size) is int else 0
    entries = [monoid.unit, *letters.values(), *(x for row in monoid.table for x in row)]
    if (len(monoid.table) != n or any(len(row) != n for row in monoid.table)
            or not all(lang.is_index(x, n) for x in entries)):
        raise InputError("malformed morphism JSON: needs a size x size table whose "
                         "entries, unit and letter images lie in 0..size-1")
    if not monoid.check_associative(letters.values()):
        raise InputError("multiplication table is not associative, or its unit "
                         "is not a unit")
    alphabet = lang.text_alphabet(sorted(letters), InputError)
    return lang.MonoidMorphism(monoid, alphabet, letters)


def cmd_forest(args) -> int:
    morphism = load_morphism(args.morphism)
    word = parse_word(args.word, morphism.alphabet)
    if not word:
        raise InputError("forest requires a nonempty word")
    root = forests.simon_forest(morphism, word)
    if not forests.validate(root, morphism, word):
        print("internal error: built forest failed validation", file=sys.stderr)
        return EXIT_NO
    bound = 3 * morphism.monoid.size
    depth = root.depth()
    if args.format == "dot":
        print(forests.to_dot(root))
    else:
        print(forests.to_brackets(root))
        print("depth %d (bound %d)" % (depth, bound))
    return EXIT_OK if depth <= bound else EXIT_NO


def cmd_pump(args) -> int:
    kind, value = load_function(args.input)
    f = need_cplc(kind, value, "pump")
    verdict = analysis.growth_degree(f, make_budget(args))
    if verdict.witness is None:
        print("no pumping witness of positive degree (degree %d)" % verdict.degree)
        return EXIT_UNDECIDED if verdict.budget_exhausted else EXIT_OK
    print("degree %d" % verdict.degree)
    print("pattern: %r" % (verdict.witness,))
    print("polynomial: %r" % (verdict.witness_poly,))
    return EXIT_UNDECIDED if verdict.budget_exhausted else EXIT_OK


# ---------------------------------------------------------------------------


class ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as malformed input (exit 3) instead of exiting
    with argparse's 2, which the exit-code contract reserves for undecided."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError("%s: %s" % (self.prog, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls of `main`:
    each parse fills a fresh namespace from the defaults, so no option
    value carries over from one call to the next."""
    parser = ArgumentParser(
        prog="zpoly",
        description="Z-polyregular functions: compile, compare, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an expression or counting formula")
    p.add_argument("input")
    p.add_argument("--target", choices=("auto", "cplc", "linrep"), default="auto")
    p.add_argument("--minimize", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="evaluate a function on a word")
    p.add_argument("input")
    p.add_argument("word", nargs="?", default="")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("minimize", help="minimize a linear representation")
    p.add_argument("input")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("equiv", help="decide equivalence (optionally modulo growth)")
    p.add_argument("input")
    p.add_argument("input2")
    p.add_argument("--mod", type=at_least(-1), default=None,
                   help="compare modulo growth degree k instead of exactly (-1: exactly)")
    add_budget_flags(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("growth", help="compute the polynomial growth degree")
    p.add_argument("input")
    add_budget_flags(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("rt", help="build the k-residual transducer")
    p.add_argument("input")
    p.add_argument("-k", type=at_least(0), default=None)
    p.add_argument("--max-states", type=at_least(1), default=64)
    p.add_argument("--format", choices=("json", "dot", "text"), default="text")
    add_budget_flags(p)
    p.set_defaults(func=cmd_rt)

    p = sub.add_parser("starfree", help="decide star-freeness")
    p.add_argument("input")
    add_budget_flags(p)
    p.set_defaults(func=cmd_starfree)

    p = sub.add_parser("spectrum", help="probe eigenvalues of word matrices")
    p.add_argument("input")
    p.add_argument("--mode", choices=("zero_one", "zero_union_unity"),
                   default="zero_union_unity")
    p.add_argument("--length-bound", type=at_least(0), default=4)
    p.add_argument("--samples", type=at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("forest", help="build a factorization forest")
    p.add_argument("morphism", help="morphism JSON (monoid table + letter images)")
    p.add_argument("word")
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.set_defaults(func=cmd_forest)

    p = sub.add_parser("pump", help="search for a pumping witness")
    p.add_argument("input")
    add_budget_flags(p)
    p.set_defaults(func=cmd_pump)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NotCauchy as exc:
        found = exc.what in GROWTH_QUESTIONS and exponential_word(exc.rep)
        if not found:
            print("input error: %s" % exc, file=sys.stderr)
            return EXIT_INPUT
        print("not of polynomial growth: the word matrix of %r has characteristic "
              "polynomial %s, with a root of modulus > 1"
              % ("".join(map(str, found[0])), poly_text(found[1])))
        return EXIT_NO
    except (InputError, lang.RegexError, cplc.ExprError, mso.MsoError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except UNDECIDED as exc:
        print("undecided: %s" % exc)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
