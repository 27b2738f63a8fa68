"""Shared fixtures and independent brute-force oracles.

The oracles here recompute series operations directly from their
definitions (split enumeration, pointwise products, truncated star sums,
regex matching by splitting, formula truth by enumerating valuations) so
the library's algebra is checked against something that cannot share its
bugs.
"""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from zpoly.exact import QMat
from zpoly.lang import (Alphabet, Dfa, RegexError, compile_regex, parse_alphabet_header,
                        universal_language)
from zpoly.cplc import Cplc, ExprError, indicator_cplc, constant_cplc, zero_cplc
from zpoly.mso import MsoError, is_so, tracked_alphabet


# ---------------------------------------------------------------------------
# word enumeration


def words_up_to(letters, n, include_empty=True):
    out = [()] if include_empty else []
    for k in range(1, n + 1):
        out.extend(itertools.product(letters, repeat=k))
    return out


# ---------------------------------------------------------------------------
# brute-force series oracles (work on any callable word -> number)


def brute_cauchy(f, g, word):
    word = tuple(word)
    return sum(f(word[:i]) * g(word[i:]) for i in range(len(word) + 1))


def brute_hadamard(f, g, word):
    return f(word) * g(word)


def brute_star(f, word):
    """Sum over all factorizations into nonempty pieces; requires f(eps)=0."""
    word = tuple(word)
    if not word:
        return 1
    total = 0
    n = len(word)
    for cuts in itertools.product([0, 1], repeat=n - 1):
        pieces = []
        start = 0
        for i, c in enumerate(cuts, start=1):
            if c:
                pieces.append(word[start:i])
                start = i
        pieces.append(word[start:])
        prod = 1
        for p in pieces:
            prod *= f(p)
        total += prod
    return total


def gauss_rank(rows) -> int:
    """Rank of a list of rational row vectors, by Gauss-Jordan elimination
    over Fraction."""
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def is_exact_entry(x) -> bool:
    """The number normal form of matrices, vectors and coordinates: an int,
    or a Fraction that is not integral (never a float)."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def rows_mul(a, b):
    """Product of matrices given as tuples of rows, by map-multiply."""
    cols = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, r, c)) for c in cols) for r in a)


def rows_power(a, e: int):
    """a^e by repeated squaring, skipping the square after the last bit."""
    result = tuple(tuple(int(i == j) for j in range(len(a))) for i in range(len(a)))
    while e:
        if e & 1:
            result = rows_mul(result, a)
        e >>= 1
        if e:
            a = rows_mul(a, a)
    return result


def char_poly(m: QMat) -> tuple:
    """Characteristic polynomial by the Faddeev-LeVerrier recurrence over
    Fraction: M_1 = m, c_k = -tr(M_k) / k, M_{k+1} = m (M_k + c_k).
    Returns its coefficients from X^0 up, as Fractions."""
    n = m.nrows
    coeffs = [Fraction(1)]  # c_0 = 1 (leading)
    mk = QMat.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = Fraction(-mk.trace(), k)
        coeffs.append(ck)
        if k < n:
            mk = mk + QMat.identity(n).scale(ck)
    # coeffs are for X^n, X^{n-1}, ..., X^0
    return tuple(reversed(coeffs))


# ---------------------------------------------------------------------------
# root classification by cyclotomic division, on integer coefficient lists
# (low degree first)


def poly_mul(p, q):
    """The coefficients of the product of two coefficient sequences."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def poly_divmod(p, d):
    """(quotient, remainder) of p by the monic d."""
    rem = list(p)
    quot = [0] * max(0, len(p) - len(d) + 1)
    for shift in reversed(range(len(quot))):
        c = quot[shift] = rem[shift + len(d) - 1]
        for i, x in enumerate(d):
            rem[shift + i] -= c * x
    return quot, rem[:len(d) - 1]


@functools.cache
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@functools.cache
def cyclotomic(n: int):
    """Phi_n: X^n - 1 divided by Phi_d for every proper divisor d of n."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p, rem = poly_divmod(p, cyclotomic(d))
            assert not any(rem)
    return tuple(p)


def oracle_classify_roots(p, mode: str) -> bool:
    """classify_roots by division: strip X, then divide out X - 1
    ("zero_one") or Phi_n for every n with phi(n) <= deg p
    ("zero_union_unity"; phi(n) >= sqrt(n / 2), so n <= 2 deg^2) as often
    as each divides, and ask whether 1 is left.  X^a (X-1)^b and X^a times
    cyclotomic polynomials are integral, so a non-integral p is neither."""
    if any(c.denominator != 1 for c in p):
        return False
    q = [int(c) for c in p]
    q = q[next(i for i, c in enumerate(q) if c):]
    deg = len(q) - 1
    if mode == "zero_one":
        divisors = [cyclotomic(1)]
    else:
        divisors = [cyclotomic(n) for n in range(1, 2 * deg * deg + 1) if euler_phi(n) <= deg]
    for d in divisors:
        while len(q) >= len(d):
            quot, rem = poly_divmod(q, d)
            if any(rem):
                break
            q = quot
    return q == [1]


def lyndon_root(word):
    """(r, e): r the least rotation of the primitive root u of `word`, and
    word = u^e; every rotation is compared."""
    n = len(word)
    p = next((p for p in range(1, n + 1) if n % p == 0 and word[:p] * (n // p) == word), 0)
    u = word[:p]
    return min((u[i:] + u[:i] for i in range(p)), default=()), (n // p if p else 1)


def count_splits(word, fs) -> int:
    """Splits of word into nonempty parts, part i in the language of the DFA
    fs[i], counted by restarting every factor DFA at every position."""
    if not fs:
        return 1 if not word else 0
    n = len(word)
    k = len(fs)
    # ways[i][pos] = splits of word[pos:] across factors i..k-1, nonempty parts
    ways = [[0] * (n + 1) for _ in range(k + 1)]
    ways[k][n] = 1
    for i in range(k - 1, -1, -1):
        dfa = fs[i]
        for pos in range(n - 1, -1, -1):
            q = dfa.initial
            total = 0
            for end in range(pos + 1, n + 1):
                q = dfa.delta[word[end - 1]][q]
                if q in dfa.accepting:
                    total += ways[i + 1][end]
            ways[i][pos] = total
    return ways[0][0]


def regex_matches(node, word) -> bool:
    """Whether a parsed regex matches a word, by trying every split;
    exponential but fine for short words."""
    word = tuple(word)
    tag = node[0]
    if tag == "empty":
        return False
    if tag == "eps":
        return word == ()
    if tag == "lit":
        return word == (node[1],)
    if tag == "or":
        return regex_matches(node[1], word) or regex_matches(node[2], word)
    if tag == "and":
        return regex_matches(node[1], word) and regex_matches(node[2], word)
    if tag == "not":
        return not regex_matches(node[1], word)
    if tag == "cat":
        return any(regex_matches(node[1], word[:i]) and regex_matches(node[2], word[i:])
                   for i in range(len(word) + 1))
    if tag == "star":
        if word == ():
            return True
        return any(regex_matches(node[1], word[:i]) and regex_matches(node, word[i:])
                   for i in range(1, len(word) + 1))
    raise ValueError("unknown regex node %r" % (tag,))


def _position_sets(n):
    return [frozenset(s) for k in range(n + 1) for s in itertools.combinations(range(n), k)]


def holds(phi, word, valuation) -> bool:
    """Truth of a formula under a valuation; quantifiers enumerate every
    position (lowercase variables) or set of positions (capitalized ones)."""
    tag = phi[0]
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag == "letter":
        return word[valuation[phi[2]]] == phi[1]
    if tag == "less":
        return valuation[phi[1]] < valuation[phi[2]]
    if tag == "eq":
        return valuation[phi[1]] == valuation[phi[2]]
    if tag == "in":
        return valuation[phi[1]] in valuation[phi[2]]
    if tag == "not":
        return not holds(phi[1], word, valuation)
    if tag == "and":
        return holds(phi[1], word, valuation) and holds(phi[2], word, valuation)
    if tag == "or":
        return holds(phi[1], word, valuation) or holds(phi[2], word, valuation)
    if tag == "exists":
        v = phi[1]
        choices = _position_sets(len(word)) if is_so(v) else range(len(word))
        return any(holds(phi[2], word, {**valuation, v: c}) for c in choices)
    raise ValueError("unknown formula node %r" % (tag,))


def count_valuations(phi, variables, word) -> int:
    """Brute-force #phi(w) over the declared variable list."""
    word = tuple(word)
    spaces = [_position_sets(len(word)) if is_so(v) else range(len(word))
              for v in variables]
    return sum(holds(phi, word, dict(zip(variables, combo)))
               for combo in itertools.product(*spaces))


# ---------------------------------------------------------------------------
# automaton constructions as they were before `lang.explore`: each numbers
# its own states, over NFA states tagged differently from the library's


def determinize(alphabet, start, move, final) -> Dfa:
    """Subset construction, not minimized: `move(S, a)` is the successor
    set of S, `final(S)` its acceptance."""
    order = [frozenset(start)]
    index = {order[0]: 0}
    delta = {a: [] for a in alphabet}
    for s in order:
        for a in alphabet:
            t = frozenset(move(s, a))
            if t not in index:
                index[t] = len(order)
                order.append(t)
            delta[a].append(index[t])
    return Dfa(alphabet, len(order), 0, [i for i, s in enumerate(order) if final(s)], delta)


def concat_by_subsets(x, y) -> Dfa:
    """x·y from the NFA on states ('x', p) and ('y', q), with an epsilon
    move from each accepting ('x', p) to ('y', initial)."""
    def close(states):
        jump = any(tag == "x" and q in x.accepting for tag, q in states)
        return set(states) | ({("y", y.initial)} if jump else set())

    def move(s, a):
        return close({(tag, (x if tag == "x" else y).delta[a][q]) for tag, q in s})

    return determinize(x.alphabet, close({("x", x.initial)}), move,
                       lambda s: any(tag == "y" and q in y.accepting for tag, q in s))


def star_by_subsets(x) -> Dfa:
    """x* from the NFA with a fresh accepting state 'start' and epsilon
    moves from it and from each accepting state to x's initial state."""
    def close(states):
        restart = "start" in states or any(q in x.accepting for q in states)
        return set(states) | ({x.initial} if restart else set())

    def move(s, a):
        return close({x.delta[a][q] for q in s if q != "start"})

    return determinize(x.alphabet, close({"start"}), move,
                       lambda s: "start" in s or any(q in x.accepting for q in s))


def _min_split_language(marked, base, k, pset, q) -> Dfa:
    """Nonempty words u on which the marked automaton, with the tracks in
    `pset` marked at the last letter of u only, reaches q."""
    chi = tuple(1 if i in pset else 0 for i in range(k))
    zero = (0,) * k
    idx = {"start": 0}
    states = ["start"]
    delta = {a: [] for a in base}
    for s in states:
        p = marked.initial if s == "start" else s[0]
        for a in base:
            nxt = (marked.delta[(a, zero)][p], marked.delta[(a, chi)][p])
            if nxt not in idx:
                idx[nxt] = len(idx)
                states.append(nxt)
            delta[a].append(idx[nxt])
    accepting = [idx[s] for s in states if s != "start" and s[1] == q]
    return Dfa(base, len(states), 0, accepting, delta).canonical()


def _restrict_tracks(marked, base, k, pset, q) -> Dfa:
    """The marked automaton from q, with the tracks in pset forced to 0."""
    keep = [i for i in range(k) if i not in pset]
    delta = {}
    for (a, bits) in tracked_alphabet(base, len(keep)):
        full = [0] * k
        for i, b in zip(keep, bits):
            full[i] = b
        delta[(a, bits)] = marked.delta[(a, tuple(full))]
    return Dfa(tracked_alphabet(base, len(keep)), marked.n, q, marked.accepting,
               delta).canonical()


def cplc_from_marked(marked, base, k) -> Cplc:
    """#phi from its marked automaton by splitting on the variables at the
    least marked position, summed one `Cplc.add` at a time."""
    if k == 0:
        plain = Dfa(base, marked.n, marked.initial, marked.accepting,
                    {a: marked.delta[(a, ())] for a in base})
        return indicator_cplc(plain)
    result = zero_cplc(base)
    for size in range(1, k + 1):
        for pset in itertools.combinations(range(k), size):
            pset = frozenset(pset)
            for q in range(marked.n):
                prefix = _min_split_language(marked, base, k, pset, q)
                if prefix.is_empty_language():
                    continue
                inner = cplc_from_marked(_restrict_tracks(marked, base, k, pset, q),
                                         base, k - size)
                if not inner.is_zero_syntactic():
                    result = result.add(indicator_cplc(prefix).cauchy(inner))
    return result


# ---------------------------------------------------------------------------
# standard example functions


@pytest.fixture(scope="session")
def ab():
    return Alphabet(["a", "b"])


@pytest.fixture(scope="session")
def unary():
    return Alphabet(["a"])


def signed_length(unary_alphabet):
    """(-1)^{|w|} |w| as a Cauchy combination over {a}."""
    odd = compile_regex("a(aa)*", unary_alphabet)
    even = compile_regex("(aa)*", unary_alphabet)
    ind = indicator_cplc
    c = (ind(odd).cauchy(ind(odd))
         .add(ind(even).cauchy(ind(even)))
         .sub(ind(even).cauchy(ind(odd)))
         .sub(ind(odd).cauchy(ind(even))))
    return c.add(ind(odd)).sub(ind(even))


@pytest.fixture(scope="session")
def signed(unary):
    return signed_length(unary)


def count_a(alphabet):
    """|w|_a = 1_{A*a} (x) 1_{A*}."""
    body = "|".join(str(x) for x in alphabet)
    return indicator_cplc(compile_regex("(%s)*a" % body, alphabet)).cauchy(
        indicator_cplc(compile_regex("(%s)*" % body, alphabet)))


@pytest.fixture(scope="session")
def wa(ab):
    return count_a(ab)


def _wa_times_wb(ab):
    # |w|_a * |w|_b = #{(x, y) : a at x, b at y}
    #              = 1_{A*a} (x) 1_{A*b} (x) 1_{A*}   (x before y)
    #              + 1_{A*b} (x) 1_{A*a} (x) 1_{A*}   (y before x)
    ind = indicator_cplc
    xa = compile_regex("(a|b)*a", ab)
    xb = compile_regex("(a|b)*b", ab)
    rest = compile_regex("(a|b)*", ab)
    return (ind(xa).cauchy(ind(xb)).cauchy(ind(rest))
            .add(ind(xb).cauchy(ind(xa)).cauchy(ind(rest))))


@pytest.fixture(scope="session")
def product_counts(ab):
    return _wa_times_wb(ab)


@pytest.fixture(scope="session")
def itimesj(ab):
    """f(a^i b^j) = i*j, zero off a*b*."""
    ind = indicator_cplc
    return (ind(compile_regex("a*a", ab))
            .cauchy(ind(compile_regex("a*b*b", ab)))
            .cauchy(ind(compile_regex("b*", ab))))


def twelve_term_function():
    """The 12-term level-1 function of raw dimension 57 (minimal dimension 14)."""
    pool = ["(a|b)*a", "(a|b)*b", "a*", "b(a|b)*", "(ab)*", "(a|b)*ab(a|b)*",
            "(aa|b)*", "a(a|b)*b"]
    ab = Alphabet(["a", "b"])
    ind = lambda r: indicator_cplc(compile_regex(r, ab))
    rng = random.Random(1)
    total = None
    for i in range(12):
        term = ind(rng.choice(pool)).cauchy(ind(rng.choice(pool)))
        term = term.scale(1 if i == 0 else (rng.randint(-2, 2) or 1))
        total = term if total is None else total.add(term)
    return total


def fold_expression(alphabet, node, indicator):
    """The expression fold that compiles every `ind` afresh."""
    tag = node[0]
    if tag == "ind":
        return indicator(compile_regex(node[1], alphabet))
    if tag == "int":
        return indicator(universal_language(alphabet)).scale(node[1])
    if tag == "scale":
        return fold_expression(alphabet, node[2], indicator).scale(node[1])
    if tag == "star":
        return fold_expression(alphabet, node[1], indicator).star()
    left = fold_expression(alphabet, node[1], indicator)
    return getattr(left, tag)(fold_expression(alphabet, node[2], indicator))


# ---------------------------------------------------------------------------
# the three surface-syntax parsers as they were before they shared
# `lang.Scanner`: independent oracles for the differential parser tests


def oracle_parse_regex(text: str, alphabet):
    pos = 0
    n = len(text)

    def peek():
        return text[pos] if pos < n else None

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_union():
        nonlocal pos
        node = parse_inter()
        skip_ws()
        while peek() == "|":
            pos += 1
            node = ("or", node, parse_inter())
            skip_ws()
        return node

    def parse_inter():
        nonlocal pos
        node = parse_concat()
        skip_ws()
        while peek() == "&":
            pos += 1
            node = ("and", node, parse_concat())
            skip_ws()
        return node

    def parse_concat():
        nonlocal pos
        node = parse_unary()
        while True:
            skip_ws()
            c = peek()
            if c is None or c in "|&)":
                return node
            node = ("cat", node, parse_unary())

    def parse_unary():
        nonlocal pos
        skip_ws()
        c = peek()
        if c == "!":
            pos += 1
            node = ("not", parse_unary())
        else:
            node = parse_atom()
        skip_ws()
        while peek() == "*":
            pos += 1
            node = ("star", node)
            skip_ws()
        return node

    def parse_atom():
        nonlocal pos
        skip_ws()
        c = peek()
        if c is None:
            raise RegexError("unexpected end of regex")
        if c == "(":
            pos += 1
            skip_ws()
            if peek() == ")":
                pos += 1
                return ("eps",)
            node = parse_union()
            skip_ws()
            if peek() != ")":
                raise RegexError("missing ')' at position %d" % pos)
            pos += 1
            return node
        if c == "∅" or c == "0" and "0" not in alphabet:
            pos += 1
            return ("empty",)
        if c in alphabet:
            pos += 1
            return ("lit", c)
        raise RegexError("unexpected character %r at position %d" % (c, pos))

    skip_ws()
    if pos >= n:
        raise RegexError("empty regex")
    node = parse_union()
    skip_ws()
    if pos != n:
        raise RegexError("trailing input at position %d" % pos)
    return node


def oracle_parse_expression(text: str):
    alphabet, src = parse_alphabet_header(text, ExprError)
    pos = 0
    n = len(src)

    def skip_ws():
        nonlocal pos
        while pos < n and src[pos].isspace():
            pos += 1

    def peek():
        skip_ws()
        return src[pos] if pos < n else None

    def expect(c):
        nonlocal pos
        if peek() != c:
            raise ExprError("expected %r at position %d" % (c, pos))
        pos += 1

    def parse_expr():
        nonlocal pos
        node = parse_term()
        while True:
            c = peek()
            if c == "+":
                pos += 1
                node = ("add", node, parse_term())
            elif c == "-":
                pos += 1
                node = ("sub", node, parse_term())
            else:
                return node

    def parse_term():
        nonlocal pos
        node = parse_factor()
        while peek() == ".":
            pos += 1
            node = ("cauchy", node, parse_factor())
        return node

    def parse_factor():
        nonlocal pos
        c = peek()
        if c is None:
            raise ExprError("unexpected end of expression")
        if c == "(":
            pos += 1
            node = parse_expr()
            expect(")")
            return node
        if c == "-" or c.isdigit():
            start = pos
            pos += 1
            while pos < n and src[pos].isdigit():
                pos += 1
            if src[start:pos] == "-":
                return ("scale", -1, parse_factor())
            value = int(src[start:pos])
            if peek() == "*":
                pos += 1
                return ("scale", value, parse_factor())
            return ("int", value)
        if src.startswith("ind", pos):
            pos += 3
            expect("(")
            depth = 1
            start = pos
            while pos < n and depth:
                if src[pos] == "(":
                    depth += 1
                elif src[pos] == ")":
                    depth -= 1
                pos += 1
            if depth:
                raise ExprError("unbalanced parentheses in ind(...)")
            return ("ind", src[start:pos - 1])
        if src.startswith("star", pos):
            pos += 4
            expect("(")
            node = parse_expr()
            expect(")")
            return ("star", node)
        raise ExprError("unexpected character %r at position %d" % (c, pos))

    node = parse_expr()
    skip_ws()
    if pos != n:
        raise ExprError("trailing input at position %d" % pos)
    return alphabet, node


_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | frozenset("0123456789")


class _OracleFormulaParser:
    def __init__(self, text: str, alphabet):
        self.text = text
        self.pos = 0
        self.alphabet = alphabet

    def error(self, msg):
        raise MsoError("%s at position %d" % (msg, self.pos))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def try_word(self, word):
        self.skip_ws()
        end = self.pos + len(word)
        if self.text[self.pos:end] == word and \
                (end >= len(self.text) or self.text[end] not in _IDENT_CHARS):
            self.pos = end
            return True
        return False

    def try_sym(self, sym):
        self.skip_ws()
        if self.text.startswith(sym, self.pos):
            self.pos += len(sym)
            return True
        return False

    def expect_sym(self, sym):
        if not self.try_sym(sym):
            self.error("expected %r" % sym)

    def ident(self):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] not in _IDENT_START:
            self.error("expected identifier")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CHARS:
            self.pos += 1
        return self.text[start:self.pos]

    def formula(self):
        left = self.disjunction()
        if self.try_sym("->"):
            right = self.formula()
            return ("or", ("not", left), right)
        return left

    def disjunction(self):
        node = self.conjunction()
        while True:
            self.skip_ws()
            if self.text.startswith("->", self.pos):
                return node
            if self.try_sym("|"):
                node = ("or", node, self.conjunction())
            else:
                return node

    def conjunction(self):
        node = self.unary()
        while self.try_sym("&"):
            node = ("and", node, self.unary())
        return node

    def unary(self):
        if self.try_sym("!"):
            return ("not", self.unary())
        if self.try_word("exists"):
            v = self.ident()
            self.expect_sym(".")
            return ("exists", v, self.formula())
        if self.try_word("forall"):
            v = self.ident()
            self.expect_sym(".")
            return ("not", ("exists", v, ("not", self.formula())))
        if self.peek() == "(":
            self.expect_sym("(")
            node = self.formula()
            self.expect_sym(")")
            return node
        return self.atom()

    def atom(self):
        if self.try_word("true"):
            return ("true",)
        if self.try_word("false"):
            return ("false",)
        if self.try_word("succ"):
            self.expect_sym("(")
            x = self.ident()
            self.expect_sym(",")
            y = self.ident()
            self.expect_sym(")")
            return ("and", ("less", x, y),
                    ("not", ("exists", "_z", ("and", ("less", x, "_z"),
                                              ("less", "_z", y)))))
        if self.try_word("first"):
            self.expect_sym("(")
            x = self.ident()
            self.expect_sym(")")
            return ("not", ("exists", "_z", ("less", "_z", x)))
        if self.try_word("last"):
            self.expect_sym("(")
            x = self.ident()
            self.expect_sym(")")
            return ("not", ("exists", "_z", ("less", x, "_z")))
        name = self.ident()
        self.skip_ws()
        if self.peek() == "(" and name in self.alphabet:
            self.expect_sym("(")
            x = self.ident()
            self.expect_sym(")")
            return ("letter", name, x)
        for sym, build in (
            ("<=", lambda a, b: ("or", ("less", a, b), ("eq", a, b))),
            (">=", lambda a, b: ("or", ("less", b, a), ("eq", a, b))),
            ("!=", lambda a, b: ("not", ("eq", a, b))),
            ("<", lambda a, b: ("less", a, b)),
            (">", lambda a, b: ("less", b, a)),
            ("=", lambda a, b: ("eq", a, b)),
        ):
            if self.try_sym(sym):
                other = self.ident()
                return build(name, other)
        if self.try_word("in"):
            other = self.ident()
            if not is_so(other):
                self.error("membership needs a second-order variable")
            return ("in", name, other)
        self.error("cannot parse atom starting with %r" % name)


def oracle_parse_count(text: str):
    alphabet, body = parse_alphabet_header(text, MsoError)
    p = _OracleFormulaParser(body, alphabet)
    if not p.try_word("count"):
        raise MsoError("expected 'count[...]'")
    p.expect_sym("[")
    variables = []
    if p.peek() != "]":
        variables.append(p.ident())
        while p.try_sym(","):
            variables.append(p.ident())
    p.expect_sym("]")
    phi = p.formula()
    p.skip_ws()
    if p.pos != len(p.text):
        p.error("trailing input")
    if len(set(variables)) != len(variables):
        raise MsoError("duplicate count variables")
    return alphabet, tuple(variables), phi
