"""Shared fixtures and independent brute-force oracles.

The oracles here recompute series operations directly from their
definitions (split enumeration, pointwise products, truncated star sums,
regex matching by splitting, formula truth by enumerating valuations) so
the library's algebra is checked against something that cannot share its
bugs.
"""

import itertools
import random
from fractions import Fraction

import pytest

from zpoly.exact import QMat, UPoly
from zpoly.lang import Alphabet, compile_regex
from zpoly.cplc import indicator_cplc, constant_cplc
from zpoly.mso import is_so


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


def char_poly(m: QMat) -> UPoly:
    """Characteristic polynomial by the Faddeev-LeVerrier recurrence over
    Fraction: M_1 = m, c_k = -tr(M_k) / k, M_{k+1} = m (M_k + c_k)."""
    n = m.nrows
    coeffs = [Fraction(1)]  # c_0 = 1 (leading)
    mk = QMat.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = -mk.trace() / k
        coeffs.append(ck)
        if k < n:
            mk = mk + QMat.identity(n).scale(ck)
    # coeffs are for X^n, X^{n-1}, ..., X^0
    return UPoly(list(reversed(coeffs)))


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
