"""Counting interpretations of MSO formulas over finite words.

#phi(w) is the number of valuations of the free variables that satisfy phi.
First-order variables (lowercase names) range over positions, second-order
variables (capitalized names) over sets of positions.

Formulas compile to "marked automata": DFAs over the alphabet A x {0,1}^k
whose extra tracks carry the valuation.  Every automaton of a compile is
well-marked: each of its first-order tracks is marked at exactly one
position.  A lift to more tracks leaves the added ones free, so it adds a
single-mark product only where nothing else marks them: under `|`, for a
quantified variable that does not occur, and for declared variables that
the formula does not use.  Under `&` the other operand, well-marked on its
own tracks, already marks each of them once.

Counting accepting runs over all markings gives an integer linear
representation; for purely first-order formulas a split on the variables
achieving the minimal position turns the count into an integer combination
of Cauchy products of indicators.  Many splits leave the same suffix
automaton, and one call splits each distinct suffix once.
"""

from __future__ import annotations

import itertools

from . import lang
from .cplc import Cplc, indicator_cplc
from .exact import QMat
from .lang import Alphabet, Dfa
from .series import LinRep


class MsoError(ValueError):
    pass


# the most states an intermediate automaton of a formula may have
STATE_CAP = 100000


def is_so(name: str) -> bool:
    return name[:1].isupper()


# ---------------------------------------------------------------------------
# AST: tuples
#   ('true',) ('false',)
#   ('letter', a, x)  ('less', x, y)  ('eq', x, y)  ('in', x, X)
#   ('not', p)  ('and', p, q)  ('or', p, q)  ('exists', v, p)


def free_vars(phi) -> frozenset:
    def visit(node, children):
        tag = node[0]
        if tag == "letter":
            return frozenset([node[2]])
        if tag in ("less", "eq", "in"):
            return frozenset(node[1:])
        if tag == "exists":
            return children[0] - {node[1]}
        if tag in ("not", "and", "or", "true", "false"):
            return frozenset().union(*children)
        raise MsoError("unknown node %r" % (tag,))

    return lang.fold(phi, visit)


# ---------------------------------------------------------------------------
# marked automata


def tracked_alphabet(base: Alphabet, k: int) -> Alphabet:
    return Alphabet([(a, bits) for a in base
                     for bits in itertools.product((0, 1), repeat=k)])


class _Shared:
    """What one call builds once and reuses, keyed on its arguments: tracked
    alphabets, letter maps of lifts and restrictions, well-marked automata,
    and the Cauchy combination of each suffix automaton split so far."""

    def __init__(self, base: Alphabet):
        self.base = base
        self.built = {}

    def once(self, key, build):
        if key not in self.built:
            self.built[key] = build()
        return self.built[key]

    def alphabet(self, k: int) -> Alphabet:
        return self.once(("alphabet", k), lambda: tracked_alphabet(self.base, k))

    def well_marked(self, tracks) -> Dfa:
        """The words whose first-order tracks are each marked exactly once."""
        def build():
            fo = frozenset(i for i, t in enumerate(tracks) if not is_so(t))

            def step(seen, letter):   # the tracks marked so far; None once one is marked twice
                hit = fo.intersection([i for i, bit in enumerate(letter[1]) if bit])
                return None if seen is None or seen & hit else seen | hit

            return lang.explore(self.alphabet(len(tracks)), frozenset(), step,
                                lambda seen: seen == fo).canonical()
        return self.once(("well-marked", tracks), build)

    def lift(self, dfa: Dfa, old_tracks, new_tracks, mark: bool) -> Dfa:
        """Cylindrify from old_tracks to new_tracks (a supersequence as a set).
        With `mark`, each added first-order track is marked exactly once: dfa is
        well-marked on old_tracks, so new_tracks' well-marked words add just that."""
        if old_tracks == new_tracks:
            return dfa
        al = self.alphabet(len(new_tracks))
        old = self.once(("lift", old_tracks, new_tracks), lambda: [
            (a, tuple(bits[new_tracks.index(t)] for t in old_tracks)) for a, bits in al])
        out = Dfa(al, dfa.n, dfa.initial, dfa.accepting,
                  {letter: dfa.delta[o] for letter, o in zip(al, old)})
        if mark and any(not is_so(t) for t in set(new_tracks) - set(old_tracks)):
            return lang.intersect(out, self.well_marked(new_tracks))
        return out   # not canonical: the product it enters, or the caller, makes it so

    def project(self, dfa: Dfa, tracks, i: int) -> Dfa:
        """Existentially quantify track i: erase it, determinize the result."""
        al = self.alphabet(len(tracks) - 1)
        rows = {(a, bits): [dfa.delta[(a, bits[:i] + (bit,) + bits[i:])] for bit in (0, 1)]
                for (a, bits) in al}

        def step(states, letter):
            return frozenset([row[q] for row in rows[letter] for q in states])

        return lang.explore(al, frozenset([dfa.initial]), step,
                            lambda states: not dfa.accepting.isdisjoint(states)).canonical()

    def restrict(self, marked: Dfa, k: int, pset, q: int) -> Dfa:
        """The suffix automaton: start from q, keep the tracks outside pset
        (those in pset are forced to zero)."""
        keep = [i for i in range(k) if i not in pset]
        al = self.alphabet(len(keep))
        full = self.once(("restrict", k, pset), lambda: [
            (a, tuple(bits[keep.index(i)] if i in keep else 0 for i in range(k)))
            for a, bits in al])
        return Dfa(al, marked.n, q, marked.accepting,
                   {letter: marked.delta[f] for letter, f in zip(al, full)}).canonical()


def _single_mark(al: Alphabet, marks, valid=lambda b, bits: True) -> Dfa:
    """Words with exactly one position marked on the tracks `marks`, where
    `valid(letter, bits)` holds.  States: 0 unmarked, 1 marked, 2 dead."""
    delta = {}
    for (b, bits) in al:
        if any(bits[i] for i in marks):
            delta[(b, bits)] = (1 if valid(b, bits) else 2, 2, 2)
        else:
            delta[(b, bits)] = (0, 1, 2)
    return Dfa(al, 3, 0, (1,), delta)


def _atom_less(al: Alphabet, xi, yi) -> Dfa:
    # 0: neither seen, 1: x seen, 2: x then y, 3: dead
    delta = {(b, bits): (3 if bits[yi] else int(bits[xi]), 3 if bits[xi] else 1 + bits[yi],
                         3 if bits[xi] or bits[yi] else 2, 3) for (b, bits) in al}
    return Dfa(al, 4, 0, (2,), delta)


def _compile(phi, shared: _Shared):
    """Returns (dfa, tracks), tracks the sorted free variables; an atom's dfa
    is not canonical yet.  Invariant: the language is well-marked on its
    first-order tracks.  Bound variables need no renaming apart: `exists`
    projects its variable's track away, so nothing outside it sees it."""
    def visit(node, children):
        tag = node[0]
        if tag in ("true", "false"):
            al = shared.alphabet(0)
            d = lang.universal_language(al) if tag == "true" else lang.empty_language(al)
            return d, ()
        if tag == "letter":
            return _single_mark(shared.alphabet(1), (0,), lambda b, bits: b == node[1]), (node[2],)
        if tag in ("less", "eq", "in"):
            x, y = node[1], node[2]
            if x == y:
                if tag == "eq":
                    return _single_mark(shared.alphabet(1), (0,)), (x,)
                if tag == "less":
                    return lang.empty_language(shared.alphabet(1)), (x,)
                raise MsoError("variable cannot be a member of itself")
            tracks = tuple(sorted((x, y)))
            al, xi, yi = shared.alphabet(2), tracks.index(x), tracks.index(y)
            if tag == "less":
                return _atom_less(al, xi, yi), tracks
            if tag == "eq":   # one position carries both marks
                return _single_mark(al, (xi, yi), lambda b, bits: bits[xi] and bits[yi]), tracks
            return _single_mark(al, (xi,), lambda b, bits: bits[yi]), tracks
        if tag == "not":
            [(sub, tracks)] = children
            return lang.intersect(lang.complement(sub), shared.well_marked(tracks)), tracks
        if tag in ("and", "or"):
            # a conjunct marks its own tracks, so an `&` lift only cylindrifies
            (d1, t1), (d2, t2) = children
            tracks = tuple(sorted(set(t1) | set(t2)))
            out = (lang.intersect if tag == "and" else lang.union)(
                shared.lift(d1, t1, tracks, tag == "or"), shared.lift(d2, t2, tracks, tag == "or"))
            if out.n > STATE_CAP:
                raise MsoError("state cap exceeded while compiling")
            return out, tracks
        if tag == "exists":
            v = node[1]
            [(sub, tracks)] = children
            if v not in tracks:
                # quantifying a variable that does not occur: a first-order
                # witness needs a position, so conjoin a fresh single-mark track
                if is_so(v):
                    return sub, tracks
                tracks2 = tuple(sorted(set(tracks) | {v}))
                sub, tracks = shared.lift(sub, tracks, tracks2, True), tracks2
            i = tracks.index(v)
            out = shared.project(sub, tracks, i)
            if out.n > STATE_CAP:
                raise MsoError("state cap exceeded while compiling")
            return out, tracks[:i] + tracks[i + 1:]
        raise MsoError("unknown node %r" % (tag,))

    return lang.fold(phi, visit)


def compile_marked_automaton(phi, variables, base: Alphabet) -> Dfa:
    """The canonical DFA over A x {0,1}^k recognizing satisfying markings,
    with tracks in the declared variable order."""
    fv = free_vars(phi)
    if not fv <= set(variables):
        raise MsoError("free variables %r not declared" % (sorted(fv - set(variables)),))
    shared = _Shared(base)
    dfa, tracks = _compile(phi, shared)
    return shared.lift(dfa, tracks, tuple(variables), True).canonical()


# ---------------------------------------------------------------------------
# from marked automata to representations and Cauchy combinations


def runs_linrep(marked: Dfa, base: Alphabet, k: int) -> LinRep:
    """Count accepted markings: mu(a)[p][q] = number of bit vectors b with
    delta(p, (a,b)) = q."""
    n = marked.n
    mats = {}
    for a in base:
        rows = [[0] * n for _ in range(n)]
        for bits in itertools.product((0, 1), repeat=k):
            row = marked.delta[(a, bits)]
            for p in range(n):
                rows[p][row[p]] += 1
        mats[a] = QMat(rows)
    I = tuple(int(q == marked.initial) for q in range(n))
    F = tuple(int(q in marked.accepting) for q in range(n))
    return LinRep(base, I, mats, F)


def count_to_linrep(phi, variables, base: Alphabet) -> LinRep:
    marked = compile_marked_automaton(phi, variables, base)
    return runs_linrep(marked, base, len(variables))


def count_sets_to_linrep(phi, variables, base: Alphabet) -> LinRep:
    """Same as count_to_linrep; second-order variables are simply
    unconstrained tracks, so exponential growth is possible."""
    for v in variables:
        if not is_so(v):
            raise MsoError("count_sets expects second-order variables only")
    return count_to_linrep(phi, variables, base)


def _min_split_languages(marked: Dfa, base: Alphabet, k: int, pset) -> dict:
    """For each state q: the words u (nonempty) such that running the marked
    automaton on u with the tracks in `pset` marked at the last position
    (and nothing else) reaches q, where any does.  States (p, r): the run
    with no marks is in p, the run that marks the letter just read is in r
    (None before the first letter); one exploration serves every q.  The
    dead state, the one every letter keeps (on first-order tracks a mark
    leads out of an accepting state), is left out: no split through it counts."""
    chi = tuple(1 if i in pset else 0 for i in range(k))
    zero = (0,) * k
    rows = {a: (marked.delta[(a, zero)], marked.delta[(a, chi)]) for a in base}

    def step(s, a):
        unmarked, marking = rows[a]
        return unmarked[s[0]], marking[s[0]]

    marks = []   # r of each state, in the numbering
    pairs = lang.explore(base, (marked.initial, None), step, lambda s: marks.append(s[1]))
    dead = {q for q, succ in enumerate(zip(*marked.delta.values())) if set(succ) == {q}}
    return {q: lang.with_accepting(pairs, [i for i, r in enumerate(marks) if r == q])
            for q in sorted(set(marks) - {None} - dead)}


def _cplc_from_marked(shared: _Shared, marked: Dfa, k: int) -> Cplc:
    """One term per split (the tracks marked at the least marked position,
    the state q reached there) and per term of the suffix count from q,
    collected first and normalized once; `shared` keeps each distinct suffix's count."""
    base = shared.base
    if k == 0:
        plain_delta = {a: marked.delta[(a, ())] for a in base}
        plain = Dfa(base, marked.n, marked.initial, marked.accepting,
                    plain_delta).canonical()
        return indicator_cplc(plain)
    terms = []
    for size in range(1, k + 1):
        for pset in itertools.combinations(range(k), size):
            pset = frozenset(pset)
            for q, prefix in _min_split_languages(marked, base, k, pset).items():
                suffix = shared.restrict(marked, k, pset, q)
                inner = shared.once(("split", suffix.key()),   # its alphabet carries k - size
                                    lambda: _cplc_from_marked(shared, suffix, k - size))
                terms.extend((coef, (prefix,) + fs) for coef, fs in inner.terms)
    return Cplc(base, terms)


def count_to_cplc(phi, variables, base: Alphabet) -> Cplc:
    """#phi as an integer combination of Cauchy products of indicators.

    The recursion splits every valuation on the set of variables taking the
    minimal position and on the automaton state reached there; all declared
    variables must be first-order.  Each distinct suffix automaton is split
    once per call.
    """
    for v in variables:
        if is_so(v):
            raise MsoError("count_to_cplc requires first-order variables; "
                           "use count_to_linrep for %r" % (v,))
    marked = compile_marked_automaton(phi, variables, base)
    return _cplc_from_marked(_Shared(base), marked, len(variables))


# ---------------------------------------------------------------------------
# surface syntax:  count[x,y] a(x) & b(y) & x < y
#
# precedence, loosest first:  '->' 1 (right-associative), '|' 2, '&' 3,
# prefix '!' 4; the prefixes `exists v.` and `forall v.` have precedence 0,
# so a quantifier reaches as far right as it can.
# sugar: <=, >=, >, !=, succ(x,y), first(x), last(x), forall v. phi; succ,
# first and last bind the helper variable `%z`, which no identifier spells.


class _FormulaParser(lang.Scanner):
    def __init__(self, text: str, alphabet: Alphabet):
        super().__init__(text, MsoError)
        self.alphabet = alphabet

    def arguments(self, n: int) -> list:
        """`(v1, ..., vn)`: n identifiers in parentheses."""
        self.expect("(")
        names = [self.ident()]
        for _ in range(n - 1):
            self.expect(",")
            names.append(self.ident())
        self.expect(")")
        return names

    def formula(self):
        return self.operators(self.operand, self.infix)

    def operand(self):
        if self.take("!"):
            return 4, lambda p: ("not", p)
        if self.word("exists"):
            v = self.ident()
            self.expect(".")
            return 0, lambda p: ("exists", v, p)
        if self.word("forall"):
            v = self.ident()
            self.expect(".")
            return 0, lambda p: ("not", ("exists", v, ("not", p)))
        if self.take("("):
            return self.GROUP, lambda p: p
        return self.atom()

    def infix(self):
        if self.take("->"):
            return 1, lambda p, q: ("or", ("not", p), q), True
        if self.take("|"):
            return 2, lambda p, q: ("or", p, q), False
        if self.take("&"):
            return 3, lambda p, q: ("and", p, q), False
        return None

    def atom(self):
        if self.word("true"):
            return ("true",)
        if self.word("false"):
            return ("false",)
        if self.word("succ"):
            return _succ(*self.arguments(2))
        if self.word("first"):
            return ("not", ("exists", "%z", ("less", "%z", *self.arguments(1))))
        if self.word("last"):
            return ("not", ("exists", "%z", ("less", *self.arguments(1), "%z")))
        name = self.ident()
        if name in self.alphabet and self.peek() == "(":
            return ("letter", name, *self.arguments(1))
        # relational atom
        for sym, build in (
            ("<=", lambda a, b: ("or", ("less", a, b), ("eq", a, b))),
            (">=", lambda a, b: ("or", ("less", b, a), ("eq", a, b))),
            ("!=", lambda a, b: ("not", ("eq", a, b))),
            ("<", lambda a, b: ("less", a, b)),
            (">", lambda a, b: ("less", b, a)),
            ("=", lambda a, b: ("eq", a, b)),
        ):
            if self.take(sym):
                other = self.ident()
                return build(name, other)
        if self.word("in"):
            other = self.ident()
            if not is_so(other):
                self.fail("membership needs a second-order variable")
            return ("in", name, other)
        self.fail("cannot parse atom starting with %r" % name)


def _succ(x, y):
    return ("and", ("less", x, y),
            ("not", ("exists", "%z", ("and", ("less", x, "%z"),
                                      ("less", "%z", y)))))


def parse_count(text: str):
    """Parse a counting file: optional alphabet declaration, then
    `count[v1,...,vk] formula`.  Returns (alphabet, variables, formula)."""
    alphabet, body = lang.parse_alphabet_header(text, MsoError)
    p = _FormulaParser(body, alphabet)
    if not p.word("count"):
        p.fail("expected 'count[...]'")
    p.expect("[")
    variables = []
    if p.peek() != "]":
        variables.append(p.ident())
        while p.take(","):
            variables.append(p.ident())
    p.expect("]")
    phi = p.finish(p.formula())
    if len(set(variables)) != len(variables):
        raise MsoError("duplicate count variables")
    return alphabet, tuple(variables), phi
