"""Integer combinations of Cauchy products of regular-language indicators.

A function is stored as a finite sum of terms  c * (1_{L0} (x) ... (x) 1_{Lj})
where each L_i is a canonical DFA.  Normalization enforces two invariants
that make syntactic cancellation as strong as possible:

  * no factor language contains the empty word -- a factor with epsilon is
    split into its epsilon-free part plus the one-point language {eps}, and
    1_{eps} factors are absorbed (they are the unit of the Cauchy product);
  * terms with identical factor lists are merged and zero terms dropped.

The term with an empty factor list denotes 1_{eps} itself.  The level of a
term with j+1 factors is j; the level of the function is the maximum term
level, and bounds the growth degree |f(w)| = O(|w|^level).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import lang, series
from .lang import Alphabet, Dfa


class Cplc:
    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms):
        """terms: iterable of (coef, factor_dfa_tuple); normalized on entry."""
        self.alphabet = alphabet
        self.terms = _normalize(alphabet, terms)

    # -- structure ---------------------------------------------------------------

    @property
    def level(self) -> int:
        """Maximum number of Cauchy factors minus one (0 for the zero function)."""
        lv = 0
        for _, fs in self.terms:
            lv = max(lv, max(0, len(fs) - 1))
        return lv

    def is_zero_syntactic(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Cplc) and self.alphabet == other.alphabet
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet, self.terms))

    # -- semantics ----------------------------------------------------------------

    def eval(self, word) -> int:
        """Direct evaluation by counting splits (factors are epsilon-free,
        so only splits into nonempty parts contribute)."""
        word = tuple(word)
        total = 0
        for coef, fs in self.terms:
            total += coef * _count_splits(word, fs)
        return total

    def eval_at_epsilon(self) -> int:
        return sum(coef for coef, fs in self.terms if not fs)

    # -- combinators ----------------------------------------------------------------

    def add(self, other: "Cplc") -> "Cplc":
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        return Cplc(self.alphabet, list(self.terms) + list(other.terms))

    def scale(self, c: int) -> "Cplc":
        return Cplc(self.alphabet, [(c * coef, fs) for coef, fs in self.terms])

    def sub(self, other: "Cplc") -> "Cplc":
        return self.add(other.scale(-1))

    def cauchy(self, other: "Cplc") -> "Cplc":
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        terms = []
        for c1, fs1 in self.terms:
            for c2, fs2 in other.terms:
                terms.append((c1 * c2, fs1 + fs2))
        return Cplc(self.alphabet, terms)

    def residual(self, word) -> "Cplc":
        """The function w |-> f(u w), term by term.

        With epsilon-free factors the one-letter rule is simply
        (1_{L0} (x) rest)|a = 1_{a^{-1} L0} (x) rest, and the epsilon term
        vanishes; renormalization re-splits any epsilon that a^{-1}L0 gained.
        """
        f = self
        for a in word:
            terms = []
            for coef, fs in f.terms:
                if not fs:
                    continue  # 1_{eps} has zero residual
                first = lang.residual_language(fs[0], (a,))
                terms.append((coef, (first,) + fs[1:]))
            f = Cplc(self.alphabet, terms)
        return f

    # -- compilation ----------------------------------------------------------------

    def to_linrep(self) -> series.LinRep:
        eps_rep = series.indicator(lang.epsilon_language(self.alphabet))
        total = None
        for coef, fs in self.terms:
            if not fs:
                rep = eps_rep
            else:
                rep = series.indicator(fs[0])
                for d in fs[1:]:
                    rep = rep.cauchy(series.indicator(d))
            rep = rep.scale(coef)
            total = rep if total is None else total.add(rep)
        if total is None:
            return series.LinRep(self.alphabet, (0,), {a: [[0]] for a in self.alphabet}, (0,))
        return total

    def factor_dfas(self):
        """Distinct canonical factor DFAs, in a deterministic order."""
        seen = {}
        for _, fs in self.terms:
            for d in fs:
                seen.setdefault(d.key(), d)
        return [seen[k] for k in sorted(seen)]

    # -- serialization -----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet.letters),
            "level": self.level,
            "terms": [{"coef": coef, "factors": [lang.dfa_to_json(d) for d in fs]}
                      for coef, fs in self.terms],
        }

    @staticmethod
    def from_json(data: dict) -> "Cplc":
        """Inverse of to_json; raises ValueError on a malformed payload."""
        try:
            alphabet = lang.text_alphabet(data["alphabet"], ValueError)
            raw = [(t["coef"], list(t["factors"])) for t in data["terms"]]
        except KeyError as exc:
            raise ValueError("Cauchy combination without %s" % exc) from None
        except TypeError as exc:
            raise ValueError("malformed Cauchy combination: %s" % exc) from None
        terms = []
        for coef, factors in raw:
            if type(coef) is not int:
                raise ValueError("coefficient %r is not an integer" % (coef,))
            dfas = tuple(lang.dfa_from_json(d) for d in factors)
            if any(d.alphabet != alphabet for d in dfas):
                raise ValueError("factor alphabet differs from %r" % (alphabet.letters,))
            terms.append((coef, dfas))
        return Cplc(alphabet, terms)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    def __repr__(self):
        if not self.terms:
            return "Cplc(0)"
        bits = []
        for coef, fs in self.terms:
            if not fs:
                bits.append("%+d*[eps]" % coef)
            else:
                bits.append("%+d*%s" % (coef, "(x)".join("L%d" % d.n for d in fs)))
        return "Cplc(%s)" % " ".join(bits)


def _normalize(alphabet: Alphabet, raw_terms):
    merged: dict = {}
    order: list = []
    for coef, fs in raw_terms:
        coef = int(coef)
        if coef == 0:
            continue
        for expanded in _expand_epsilon(tuple(fs)):
            key = tuple([d.key() for d in expanded])
            if key not in merged:
                merged[key] = [0, expanded]
                order.append(key)
            merged[key][0] += coef
    out = []
    for key in sorted(order, key=lambda k: (len(k), k)):
        coef, fs = merged[key]
        if coef != 0:
            out.append((coef, fs))
    return tuple(out)


def _expand_epsilon(fs):
    """Rewrite a factor list into lists of epsilon-free nonempty factors.

    Yields factor tuples; a factor containing epsilon branches into its
    epsilon-free part and (absorbing the unit 1_{eps}) the list without it.
    Factors with the empty language kill the term.
    """
    fs = tuple([d.canonical() for d in fs])
    for i, d in enumerate(fs):
        if d.is_empty_language():
            return []
        if d.accepts_epsilon():
            rest = fs[:i] + fs[i + 1:]
            out = list(_expand_epsilon(rest))
            stripped = lang.strip_epsilon(d)
            if not stripped.is_empty_language():
                out.extend(_expand_epsilon(fs[:i] + (stripped,) + fs[i + 1:]))
            return out
    return [fs]


def _count_splits(word, fs) -> int:
    """Splits of word into nonempty parts u_0 .. u_{k-1} with u_i in the
    language of fs[i], one factor at a time.  ends[pos] counts the splits of
    word[:pos] into the parts so far; a left-to-right run of the next factor
    with partial[q] = the splits whose open part is read up to state q gives
    the counts for one more part."""
    if not fs:
        return int(not word)
    ends = [1] + [0] * len(word)
    for d in fs:
        delta, initial, accepting = d.delta, d.initial, tuple(d.accepting)
        partial = [0] * d.n
        nxt = [0]
        for a, start in zip(word, ends):
            step = delta[a]
            counts = [0] * d.n
            for q, c in enumerate(partial):
                if c:
                    counts[step[q]] += c
            if start:
                counts[step[initial]] += start
            partial = counts
            nxt.append(sum([counts[q] for q in accepting]))
        ends = nxt
    return ends[-1]


# ---------------------------------------------------------------------------
# helpers to build common functions


def indicator_cplc(dfa: Dfa) -> Cplc:
    return Cplc(dfa.alphabet, [(1, (dfa.canonical(),))])


def constant_cplc(alphabet: Alphabet, c: int) -> Cplc:
    return Cplc(alphabet, [(c, (lang.universal_language(alphabet),))])


def zero_cplc(alphabet: Alphabet) -> Cplc:
    return Cplc(alphabet, [])


# ---------------------------------------------------------------------------
# product monoid of the factor DFAs, refined by a letter tracker
#
# The tracker distinguishes the empty word, each single letter, and "length
# at least two"; refining by it keeps single letters in their own classes,
# which the pumping analysis relies on.


def _tracker_mul(u, v):
    if u == "1":
        return v
    if v == "1":
        return u
    return "T"


def product_monoid(f: Cplc, cap: int = 100000):
    """(monoid, morphism) for the product of the factor transition monoids
    and the letter tracker."""
    dfas = f.factor_dfas()
    alphabet = f.alphabet

    def compose(x, y):
        ts1, u1 = x
        ts2, u2 = y
        return (tuple([tuple([t2[q] for q in t1]) for t1, t2 in zip(ts1, ts2)]),
                _tracker_mul(u1, u2))

    unit = (tuple([tuple(range(d.n)) for d in dfas]), "1")
    gens = {a: (tuple([d.transformation((a,)) for d in dfas]), a) for a in alphabet}
    monoid, morphism, _ = lang.monoid_from_generators(alphabet, gens, unit,
                                                      compose, cap=cap)
    return monoid, morphism


# ---------------------------------------------------------------------------
# pumping patterns


@dataclass(frozen=True)
class PumpingPattern:
    """alpha_0 w_1^{X_1} alpha_1 ... w_k^{X_k} alpha_k.

    alphas has one more entry than pumps; all entries are letter tuples.
    """
    alphas: tuple
    pumps: tuple

    def __post_init__(self):
        if len(self.alphas) != len(self.pumps) + 1:
            raise ValueError("need one more connector than pump words")

    @property
    def size(self) -> int:
        return len(self.pumps)

    def realize(self, exponents) -> tuple:
        if len(exponents) != len(self.pumps):
            raise ValueError("exponent arity mismatch")
        out = list(self.alphas[0])
        for w, x, alpha in zip(self.pumps, exponents, self.alphas[1:]):
            out.extend(w * x)
            out.extend(alpha)
        return tuple(out)

    def __repr__(self):
        def s(w):
            return "".join(map(str, w)) or "_"
        bits = [s(self.alphas[0])]
        for w, alpha in zip(self.pumps, self.alphas[1:]):
            bits.append("(%s)^X" % s(w))
            bits.append(s(alpha))
        return " ".join(bits)


# ---------------------------------------------------------------------------
# expression surface syntax
#
#   file    :=  [ "alphabet" "=" letters ]  expr
#   infix   :=  "+" and "-" (precedence 1), "." (2, the Cauchy product), all
#               left-associative
#   prefix  :=  "-" and INT "*" (3); "-2" is one integer literal
#   atoms   :=  INT | "ind" "(" regex ")" | "(" expr ")" | "star" "(" expr ")"
#
# A bare integer denotes the constant function (INT * the indicator of all
# words).  star(...) is only available when compiling to a linear
# representation, since Cauchy iteration leaves the polynomial-growth class.


class ExprError(ValueError):
    pass


_DIGITS = frozenset("0123456789")   # str.isdigit also admits "²" and "٣"


def parse_expression(text: str):
    """Parse an expression file; returns (alphabet, ast).

    ast nodes: ('ind', regex_text), ('int', n), ('scale', n, e),
    ('add', l, r), ('sub', l, r), ('cauchy', l, r), ('star', e).
    """
    alphabet, body = lang.parse_alphabet_header(text, ExprError)
    s = lang.Scanner(body, ExprError)

    def operand():
        c = s.peek()
        if c == "-" or c in _DIGITS:
            start = s.pos
            s.pos += 1
            while s.text[s.pos:s.pos + 1] in _DIGITS:
                s.pos += 1
            literal = s.text[start:s.pos]
            if literal == "-":
                return 3, lambda e: ("scale", -1, e)
            n = int(literal)
            if s.take("*"):
                return 3, lambda e: ("scale", n, e)
            return ("int", n)
        if c is None:
            s.fail("unexpected end of expression")
        if s.take("("):
            return s.GROUP, lambda e: e
        if s.word("ind"):
            s.expect("(")
            start = s.pos
            lang.read_regex(s, alphabet)   # checked here, compiled by the fold
            s.expect(")")
            return ("ind", s.text[start:s.pos - 1])
        if s.word("star"):
            s.expect("(")
            return s.GROUP, lambda e: ("star", e)
        s.fail("unexpected character %r" % c)

    def infix():
        if s.take("+"):
            return 1, lambda x, y: ("add", x, y), False
        if s.take("-"):
            return 1, lambda x, y: ("sub", x, y), False
        if s.take("."):
            return 2, lambda x, y: ("cauchy", x, y), False
        return None

    return alphabet, s.finish(s.operators(operand, infix))


def expression_uses_star(ast) -> bool:
    return lang.fold(ast, lambda node, children: node[0] == "star" or any(children))


def _fold_expression(alphabet: Alphabet, ast, indicator):
    """Fold the AST with the combinators that Cplc and LinRep share;
    `indicator` maps a DFA to its indicator function in the target type.
    Each distinct `ind` text is compiled once per fold (the values are
    immutable, so repeated terms share one)."""
    indicators = {}   # regex text -> its indicator function

    def visit(node, children):
        tag = node[0]
        if tag == "ind":
            if node[1] not in indicators:
                indicators[node[1]] = indicator(lang.compile_regex(node[1], alphabet))
            return indicators[node[1]]
        if tag == "int":
            return indicator(lang.universal_language(alphabet)).scale(node[1])
        if tag == "scale":
            return children[0].scale(node[1])
        if tag in ("add", "sub", "cauchy"):
            return getattr(children[0], tag)(children[1])
        if tag == "star":
            if indicator is not series.indicator:
                raise ExprError("star(...) requires compilation to a linear representation")
            try:
                return children[0].star()
            except ValueError as exc:   # the iterated series is not proper
                raise ExprError(str(exc)) from None
        raise ExprError("unknown node %r" % (tag,))

    return lang.fold(ast, visit)


def expression_to_cplc(alphabet: Alphabet, ast) -> Cplc:
    return _fold_expression(alphabet, ast, indicator_cplc)


def expression_to_linrep(alphabet: Alphabet, ast) -> series.LinRep:
    return _fold_expression(alphabet, ast, series.indicator)
