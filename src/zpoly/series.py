"""Rational series presented by linear representations (I, mu, F).

A representation over an alphabet A assigns a square rational matrix to
every letter; the series value on a word w = a1..an is I mu(a1)..mu(an) F.
Minimization is the classical two-sided reduction: after a forward pass on
reachable row vectors and a backward pass on co-reachable column vectors the
dimension equals the rank of the Hankel matrix, so two series are equal iff
their difference minimizes to dimension zero.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .exact import (QMat, RowBasis, char_poly, classify_roots, common_denominator, exact_entry,
                    poly_text)
from .lang import Alphabet, text_alphabet


class LinRep:
    __slots__ = ("alphabet", "dim", "I", "mats", "F")

    def __init__(self, alphabet: Alphabet, I, mats, F):
        self.alphabet = alphabet
        self.I = tuple([exact_entry(x) for x in I])
        self.dim = len(self.I)
        self.mats = {a: (m if isinstance(m, QMat) else QMat(m)) for a, m in mats.items()}
        self.F = tuple([exact_entry(x) for x in F])
        if len(self.F) != self.dim:
            raise ValueError("I/F dimension mismatch")
        for a in alphabet:
            m = self.mats[a]
            if m.nrows != self.dim or m.ncols != self.dim:
                raise ValueError("matrix dimension mismatch for letter %r" % (a,))

    # -- evaluation -----------------------------------------------------------

    def eval(self, word):
        v = self.I
        for a in word:
            v = self.mats[a].vecmat(v)
        return exact_entry(sum(map(operator.mul, v, self.F)))

    def word_matrix(self, word) -> QMat:
        m = QMat.identity(self.dim)
        for a in word:
            m = m * self.mats[a]
        return m

    # -- combinators ------------------------------------------------------------

    def _check_same_alphabet(self, other):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")

    def add(self, other: "LinRep") -> "LinRep":
        self._check_same_alphabet(other)
        n, m = self.dim, other.dim
        I = self.I + other.I
        F = self.F + other.F
        mats = {}
        for a in self.alphabet:
            x, y = self.mats[a], other.mats[a]
            rows = [r + (0,) * m for r in x.rows]
            rows += [(0,) * n + r for r in y.rows]
            mats[a] = QMat(rows)
        return LinRep(self.alphabet, I, mats, F)

    def scale(self, c) -> "LinRep":
        c = exact_entry(c)
        return LinRep(self.alphabet, tuple([c * x for x in self.I]), self.mats, self.F)

    def sub(self, other: "LinRep") -> "LinRep":
        return self.add(other.scale(-1))

    def cauchy(self, other: "LinRep") -> "LinRep":
        """(f (x) g)(w) = sum over splits w = uv of f(u) g(v)."""
        self._check_same_alphabet(other)
        n, m = self.dim, other.dim
        f_eps = sum(x * y for x, y in zip(self.I, self.F))
        I = self.I + tuple([f_eps * x for x in other.I])
        F = (0,) * n + other.F
        mats = {}
        for a in self.alphabet:
            x, y = self.mats[a], other.mats[a]
            # top-right block: finish the f-factor with this letter, then
            # inject into g's initial vector
            xf = x.matvec(self.F)
            rows = []
            for i in range(n):
                rows.append(list(x.rows[i]) + [xf[i] * other.I[j] for j in range(m)])
            for i in range(m):
                rows.append((0,) * n + y.rows[i])
            mats[a] = QMat(rows)
        return LinRep(self.alphabet, I, mats, F)

    def hadamard(self, other: "LinRep") -> "LinRep":
        """(f . g)(w) = f(w) g(w), by the Kronecker construction."""
        self._check_same_alphabet(other)
        n, m = self.dim, other.dim
        I = tuple([self.I[i] * other.I[j] for i in range(n) for j in range(m)])
        F = tuple([self.F[i] * other.F[j] for i in range(n) for j in range(m)])
        mats = {}
        for a in self.alphabet:
            x, y = self.mats[a], other.mats[a]
            rows = []
            for i in range(n):
                for j in range(m):
                    rows.append([x.rows[i][k] * y.rows[j][l]
                                 for k in range(n) for l in range(m)])
            mats[a] = QMat(rows)
        return LinRep(self.alphabet, I, mats, F)

    def star(self) -> "LinRep":
        """f* = sum over factorizations into nonempty blocks of the product
        of block values.  Defined only for proper series (f(eps) = 0)."""
        if self.eval(()) != 0:
            raise ValueError("star requires a proper series (value 0 on the empty word)")
        n = self.dim
        # state 0 is "between blocks"; states 1..n track the open block
        I = F = (1,) + (0,) * n
        mats = {}
        for a in self.alphabet:
            x = self.mats[a]
            close = x.matvec(self.F)          # finish the open block with a
            openv = self.I                     # start a block
            one_letter = sum(self.I[i] * close[i] for i in range(n))
            rows = [[one_letter] + [sum(self.I[i] * x.rows[i][j] for i in range(n))
                                    for j in range(n)]]
            for i in range(n):
                rows.append([close[i]] + list(x.rows[i]))
            mats[a] = QMat(rows)
        return LinRep(self.alphabet, I, mats, F)

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        def enc(x):
            return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)
        return {
            "alphabet": list(self.alphabet.letters),
            "dim": self.dim,
            "initial": [enc(x) for x in self.I],
            "final": [enc(x) for x in self.F],
            "matrices": {a: [[enc(x) for x in row] for row in self.mats[a].rows]
                         for a in self.alphabet},
        }

    @staticmethod
    def from_json(data: dict) -> "LinRep":
        """Inverse of to_json; raises ValueError on a malformed payload."""
        def dec(s):
            if type(s) in (str, int):
                p, _, q = str(s).partition("/")
                try:
                    return Fraction(int(p), int(q) if q else 1)
                except (ValueError, ZeroDivisionError):
                    pass
            raise ValueError("not an integer or p/q fraction: %r" % (s,))

        def vector(xs):
            if not isinstance(xs, list):
                raise ValueError("expected a list of numbers, got %r" % (xs,))
            return [dec(x) for x in xs]

        try:
            alphabet = text_alphabet(data["alphabet"], ValueError)
            initial, final, matrices = data["initial"], data["final"], data["matrices"]
            if not isinstance(matrices, dict):
                raise ValueError("matrices must map letters to matrices")
            mats = {a: matrices[a] for a in alphabet}
        except KeyError as exc:
            raise ValueError("linear representation without %s" % exc) from None
        except TypeError as exc:
            raise ValueError("malformed linear representation: %s" % exc) from None
        if not all(isinstance(rows, list) for rows in mats.values()):
            raise ValueError("each matrix must be a list of rows")
        return LinRep(alphabet, vector(initial),
                      {a: QMat([vector(row) for row in rows]) for a, rows in mats.items()},
                      vector(final))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    def __repr__(self):
        return "LinRep(dim=%d, alphabet=%r)" % (self.dim, self.alphabet.letters)


def indicator(dfa) -> LinRep:
    """The 0/1 series of a regular language."""
    n = dfa.n
    I = tuple([int(q == dfa.initial) for q in range(n)])
    F = tuple([int(q in dfa.accepting) for q in range(n)])
    mats = {}
    for a in dfa.alphabet:
        rows = [[int(dfa.delta[a][p] == q) for q in range(n)]
                for p in range(n)]
        mats[a] = QMat(rows)
    return LinRep(dfa.alphabet, I, mats, F)


@dataclass
class SpanBasis:
    """Words whose row (or column) vectors realize a basis of the
    reachability (co-reachability) space of a representation."""
    words: list
    vectors: list


def _forward_reduce(rep: LinRep):
    """Restrict to the row space spanned by { I mu(u) }.  Returns the
    reduced representation and the word-indexed basis.

    One breadth-first pass: each image v mu(a) of a basis vector is reduced
    once, and either inserted (its coordinates are then a new unit vector)
    or expressed in the basis found so far, which is a prefix of the final
    basis."""
    basis = RowBasis(rep.dim)
    if not basis.insert(rep.I):
        zero = LinRep(rep.alphabet, (), {a: QMat([]) for a in rep.alphabet}, ())
        return zero, SpanBasis([], [])
    transposes = {a: rep.mats[a].transpose() for a in rep.alphabet}
    words, queue = [()], [rep.I]
    images = {a: [] for a in rep.alphabet}
    for w, v in zip(words, queue):   # both grow while the loop runs
        for a in rep.alphabet:
            c = basis.coords(transposes[a].matvec(v), insert=True)
            if c is None:
                c = (0,) * len(queue) + (1,)
                words.append(w + (a,))
                queue.append(basis.vectors[-1])
            images[a].append(c)
    m = len(basis)
    mats = {a: QMat([c + (0,) * (m - len(c)) for c in rows]) for a, rows in images.items()}
    I = (1,) + (0,) * (m - 1)
    F = tuple([sum(map(operator.mul, v, rep.F)) for v in queue])
    return LinRep(rep.alphabet, I, mats, F), SpanBasis(words, list(basis.vectors))


def _transpose_rep(rep: LinRep) -> LinRep:
    """Reverse the series: swap I and F, transpose matrices.  The row space
    of the transpose is the column space of the original."""
    return LinRep(rep.alphabet, rep.F,
                  {a: rep.mats[a].transpose() for a in rep.alphabet}, rep.I)


def reduce_minimize(rep: LinRep):
    """Two-sided reduction to the minimal dimension (= Hankel rank).

    Returns (minimal representation, row basis, column basis); the bases are
    indexed by words: row-basis words u with vectors I mu(u) of the input,
    column-basis words v with vectors mu(v) F of the forward-reduced
    representation (read right to left).
    """
    fwd, row_basis = _forward_reduce(rep)
    if fwd.dim == 0:
        return fwd, row_basis, SpanBasis([], [])
    bwd_t, col_basis_t = _forward_reduce(_transpose_rep(fwd))
    minimal = _transpose_rep(bwd_t)
    # words found on the transposed series are reversed suffix words
    col_words = [tuple(reversed(w)) for w in col_basis_t.words]
    return minimal, row_basis, SpanBasis(col_words, list(col_basis_t.vectors))


def minimize(rep: LinRep) -> LinRep:
    return reduce_minimize(rep)[0]


def equivalent(f: LinRep, g: LinRep) -> bool:
    return minimize(f.sub(g)).dim == 0


def distinguishing_word(f: LinRep, g: LinRep):
    """A word where f and g differ, or None when equivalent.

    If the series differ they differ on some word of length less than
    dim(f) + dim(g), so the breadth-first search is complete.
    """
    diff = minimize(f.sub(g))
    if diff.dim == 0:
        return None
    # a nonzero series of Hankel rank n is nonzero on u v with |u|, |v| < n
    limit = 2 * diff.dim - 1
    seen = set()
    queue = deque([((), diff.I)])
    while queue:
        w, v = queue.popleft()
        if sum(x * y for x, y in zip(v, diff.F)) != 0:
            return w
        if len(w) >= limit or v in seen:
            continue
        seen.add(v)
        for a in diff.alphabet:
            queue.append((w + (a,), diff.mats[a].vecmat(v)))
    raise AssertionError("nonzero minimal series with no short witness")


def lyndon_root(word):
    """(r, e) with r a Lyndon word and `word` a rotation of r^e.

    r is the least rotation of the primitive root of `word` (the empty word
    is its own root, with e = 1).  Linear time: the smallest period comes
    from the KMP failure function, and the least rotation of the primitive
    root u from Duval's factorization run over uu."""
    n = len(word)
    border = [0] * (n + 1)   # border[i]: longest proper border of word[:i]
    k = 0
    for i in range(1, n):
        while k and word[i] != word[k]:
            k = border[k]
        if word[i] == word[k]:
            k += 1
        border[i + 1] = k
    p = n - border[n]
    if not n or n % p:
        p = n
    uu = word[:p] * 2
    i = start = 0
    while i < p:
        start, j, k = i, i + 1, i
        while j < 2 * p and uu[k] <= uu[j]:
            k = i if uu[k] < uu[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return uu[start:start + p], (n // p if p else 1)


@dataclass
class SpectrumReport:
    ok: bool
    mode: str
    checked: int
    violations: list  # (word, characteristic polynomial) pairs


def spectrum_probe(rep: LinRep, mode: str, length_bound: int = 4,
                   sample_count: int = 200, seed: int = 0) -> SpectrumReport:
    """Probe eigenvalues of word matrices.

    mode "zero_one": spectra must lie in {0, 1} (star-free side);
    mode "zero_union_unity": spectra must lie in roots of unity and 0
    (polynomial-growth side).  Exhaustive over all words up to the length
    bound when that is feasible, otherwise a seeded random sample.

    The letter matrices are scaled once to integer matrices A_a = d mu(a),
    d the lcm of their denominators, so mu(w) = A_w / d^|w|, and the
    coefficient of X^(n-i) in det(X - mu(w)) is that of det(X - A_w)
    divided by d^(|w| i).

    Each word w is decided from its Lyndon root: w is a rotation of r^e
    with r a Lyndon word (`lyndon_root`).  Since det(X - A_u A_v) =
    det(X - A_v A_u), every rotation of r^e has the polynomial of
    A_r^e, and as |w| = e |r| the scaling by d^(|w| i) is the same too.
    The eigenvalues of mu(r^e) are the e-th powers of those of mu(r), and
    both {0, 1} and {0} with the roots of unity are closed under
    lambda -> lambda^e, so a conforming root settles every word over it.
    Only a violating root needs its powers: det(X - A_r^e) is computed
    once per (r, e) that occurs, and reported for each of its words, so
    the report is the one of checking every word on its own.

    The roots are checked in sorted order with a stack of the previous
    root's prefix products: a root shares the stack up to its common
    prefix with the previous one, which in sorted order is its longest
    common prefix with any earlier root, so each distinct prefix costs one
    integer product.  Cost: one characteristic polynomial per distinct
    root, plus one per (r, e) with e > 1 whose root violates.  Every root
    of an exhaustive word set is itself one of its words, so this is never
    more than one per word; a sampled r^e whose root was not drawn costs
    at most two.
    """
    if length_bound < 0 or sample_count < 1:
        raise ValueError("spectrum_probe needs length_bound >= 0 and sample_count >= 1")
    letters = list(rep.alphabet.letters)
    total, k = 1, 0     # words of length <= k, counted until past the budget
    while k < length_bound and total <= sample_count:
        k += 1
        total += len(letters) ** k
    if total <= sample_count:
        words = [w for k in range(length_bound + 1)
                 for w in itertools.product(letters, repeat=k)]
    else:
        rng = random.Random(seed)
        words = []
        for _ in range(sample_count):
            k = rng.randint(1, length_bound)
            words.append(tuple([rng.choice(letters) for _ in range(k)]))
    d = common_denominator(x for a in letters for r in rep.mats[a].rows for x in r)
    scaled = {a: rep.mats[a].scale(d) for a in letters}

    def polynomial(a_w, length):
        """det(X - mu(w)) from A_w, for a word w of the given length."""
        return tuple([exact_entry(Fraction(c, d ** (length * (rep.dim - j))))
                      for j, c in enumerate(char_poly(a_w))])

    words = sorted(set(words))
    roots = {w: lyndon_root(w) for w in words}
    prefixes = [QMat.identity(rep.dim)]   # A_u for the prefixes u of the previous root
    prev = ()
    violating = {}   # violating root r -> (A_r, text of its polynomial)
    for r in sorted({r for r, _ in roots.values()}):
        k = next((i for i, (x, y) in enumerate(zip(prev, r)) if x != y), min(len(prev), len(r)))
        del prefixes[k + 1:]
        for a in r[k:]:
            prefixes.append(prefixes[-1] * scaled[a])
        p = polynomial(prefixes[-1], len(r))
        if not classify_roots(p, mode):
            violating[r] = (prefixes[-1], poly_text(p))
        prev = r
    powers = {}   # (r, e) with r violating -> text of the violating polynomial, or None
    violations = []
    for w in words:
        r, e = roots[w]
        if r not in violating:
            continue
        if (r, e) not in powers:
            a_r, shown = violating[r]
            if e > 1:
                p = polynomial(a_r.power(e), len(w))
                shown = None if classify_roots(p, mode) else poly_text(p)
            powers[r, e] = shown
        if powers[r, e] is not None:
            violations.append((w, powers[r, e]))
    return SpectrumReport(not violations, mode, len(words), violations)
