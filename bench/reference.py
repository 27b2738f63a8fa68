"""Brute-force reference evaluators that share no code with zpoly.

Regular factors are matched with Python's `re.fullmatch`, Cauchy products
by enumerating splits, counting formulas by enumerating valuations, and
linear representations printed by `zpoly compile` are evaluated with plain
Fraction arithmetic.  Everything here is exponential or quadratic and meant
for the short seeded words the benchmark checks outside its timed region.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# sums of Cauchy products of regular-language indicators
#
# A combination is a tuple of (coef, (regex, ...)) terms; a term with k
# regexes denotes coef * (1_{L1} . ... . 1_{Lk}), with the Cauchy product
# summing over every split of the word into k (possibly empty) pieces.


@lru_cache(maxsize=None)
def _pattern(regex: str):
    return re.compile(regex)


def matches(regex: str, word: str) -> bool:
    return _pattern(regex).fullmatch(word) is not None


def cauchy_count(regexes, word: str) -> int:
    """Number of splits word = u1 ... uk with each u_i in L(regexes[i])."""
    if len(regexes) == 1:
        return int(matches(regexes[0], word))
    n = len(word)
    if len(regexes) == 2:
        left, right = _pattern(regexes[0]), _pattern(regexes[1])
        return sum(1 for i in range(n + 1)
                   if left.fullmatch(word, 0, i) and right.fullmatch(word, i))
    # ways[i] = splits of word[i:] over the remaining factors
    ways = [0] * n + [1]
    for regex in reversed(regexes):
        pat = _pattern(regex)
        ways = [sum(ways[j] for j in range(i, n + 1)
                    if ways[j] and pat.fullmatch(word, i, j))
                for i in range(n + 1)]
    return ways[0]


def combination_value(terms, word: str) -> int:
    return sum(coef * cauchy_count(regexes, word) for coef, regexes in terms)


# ---------------------------------------------------------------------------
# counting formulas
#
# Nodes: ('letter', a, x), ('less', x, y), ('succ', x, y),
# ('in', x, X), ('not', p), ('and', p, q), ('or', p, q), ('exists', v, p),
# ('forall', v, p).  Upper-case variables range over sets of positions.


def holds(phi, word: str, env: dict) -> bool:
    tag = phi[0]
    if tag == "letter":
        return word[env[phi[2]]] == phi[1]
    if tag == "less":
        return env[phi[1]] < env[phi[2]]
    if tag == "succ":
        return env[phi[2]] == env[phi[1]] + 1
    if tag == "in":
        return env[phi[1]] in env[phi[2]]
    if tag == "not":
        return not holds(phi[1], word, env)
    if tag == "and":
        return holds(phi[1], word, env) and holds(phi[2], word, env)
    if tag == "or":
        return holds(phi[1], word, env) or holds(phi[2], word, env)
    if tag in ("exists", "forall"):
        test = any if tag == "exists" else all
        return test(holds(phi[2], word, {**env, phi[1]: value})
                    for value in _domain(phi[1], len(word)))
    raise ValueError("unknown formula node %r" % (tag,))


def _domain(var: str, n: int):
    if var[:1].isupper():
        return [frozenset(s) for k in range(n + 1)
                for s in itertools.combinations(range(n), k)]
    return range(n)


def count_valuations(phi, variables, word: str) -> int:
    domains = [_domain(v, len(word)) for v in variables]
    return sum(1 for values in itertools.product(*domains)
               if holds(phi, word, dict(zip(variables, values))))


# ---------------------------------------------------------------------------
# linear representations in zpoly's JSON layout


def _fraction(text) -> Fraction:
    return Fraction(str(text))


def linrep_value(data: dict, word: str) -> Fraction:
    v = [_fraction(x) for x in data["initial"]]
    mats = {a: [[_fraction(x) for x in row] for row in rows]
            for a, rows in data["matrices"].items()}
    for a in word:
        m = mats[a]
        v = [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(v))]
    return sum(x * _fraction(y) for x, y in zip(v, data["final"]))


def rank(rows) -> int:
    """Rank of a rational matrix by plain Gaussian elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# finite monoids for the forest command


def transformation_monoid(letter_maps: dict):
    """Close letter transformations (tuples) under composition.

    Returns (table, letters) in the layout of `zpoly forest` morphism files:
    element 0 is the identity and table[x][y] is "x then y".
    """
    n = len(next(iter(letter_maps.values())))
    unit = tuple(range(n))
    elements = [unit]
    index = {unit: 0}
    i = 0
    while i < len(elements):
        x = elements[i]
        for g in letter_maps.values():
            y = tuple(g[q] for q in x)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
        i += 1
    table = [[index[tuple(y[q] for q in x)] for y in elements] for x in elements]
    letters = {a: index[g] for a, g in letter_maps.items()}
    return table, letters


def forest_yield(brackets: str) -> str:
    return brackets.replace("<", "").replace(">", "")


def brackets_balanced(brackets: str) -> bool:
    depth = 0
    for ch in brackets:
        depth += (ch == "<") - (ch == ">")
        if depth < 0:
            return False
    return depth == 0
