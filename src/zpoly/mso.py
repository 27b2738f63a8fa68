"""Counting interpretations of MSO formulas over finite words.

#phi(w) is the number of valuations of the free variables that satisfy phi.
First-order variables (lowercase names) range over positions, second-order
variables (capitalized names) over sets of positions.

Formulas compile to "marked automata": DFAs over the alphabet A x {0,1}^k
whose extra tracks carry the valuation, with first-order tracks marked at
exactly one position.  Counting accepting runs over all markings gives an
integer linear representation; for purely first-order formulas a split on
the variables achieving the minimal position turns the count into an
integer combination of Cauchy products of indicators.
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
    tag = phi[0]
    if tag in ("true", "false"):
        return frozenset()
    if tag == "letter":
        return frozenset([phi[2]])
    if tag in ("less", "eq", "in"):
        return frozenset([phi[1], phi[2]])
    if tag == "not":
        return free_vars(phi[1])
    if tag in ("and", "or"):
        first, rest = lang.unchain(phi, ("and", "or"))
        return free_vars(first).union(*[free_vars(right) for _, right in rest])
    if tag == "exists":
        return free_vars(phi[2]) - {phi[1]}
    raise MsoError("unknown node %r" % (tag,))


def rename_bound(phi, counter=None, env=None):
    """Alpha-rename bound variables apart (prefixing '%'), preserving kind."""
    if counter is None:
        counter = itertools.count()
    env = env or {}
    tag = phi[0]
    if tag in ("true", "false"):
        return phi
    if tag == "letter":
        return (tag, phi[1], env.get(phi[2], phi[2]))
    if tag in ("less", "eq", "in"):
        return (tag, env.get(phi[1], phi[1]), env.get(phi[2], phi[2]))
    if tag == "not":
        return (tag, rename_bound(phi[1], counter, env))
    if tag in ("and", "or"):
        first, rest = lang.unchain(phi, ("and", "or"))
        out = rename_bound(first, counter, env)
        for tag, right in rest:
            out = (tag, out, rename_bound(right, counter, env))
        return out
    if tag == "exists":
        v = phi[1]
        fresh = ("%B" if is_so(v) else "%b") + str(next(counter))
        env2 = dict(env)
        env2[v] = fresh
        return (tag, fresh, rename_bound(phi[2], counter, env2))
    raise MsoError("unknown node %r" % (tag,))


# the '%b'/'%B' internal prefix keeps kind detection working
def _kind(name: str) -> str:
    if name.startswith("%"):
        return "so" if name[1] == "B" else "fo"
    return "so" if is_so(name) else "fo"


# ---------------------------------------------------------------------------
# marked automata


def tracked_alphabet(base: Alphabet, k: int) -> Alphabet:
    return Alphabet([(a, bits) for a in base
                     for bits in itertools.product((0, 1), repeat=k)])


def _single_mark(base: Alphabet, tracks, marks, valid=lambda b, bits: True) -> Dfa:
    """Words with exactly one position marked on the tracks `marks`, where
    `valid(letter, bits)` holds.  States: 0 unmarked, 1 marked, 2 dead."""
    al = tracked_alphabet(base, len(tracks))
    delta = {}
    for (b, bits) in al:
        if any(bits[i] for i in marks):
            delta[(b, bits)] = (1 if valid(b, bits) else 2, 2, 2)
        else:
            delta[(b, bits)] = (0, 1, 2)
    return Dfa(al, 3, 0, (1,), delta).canonical()


def _well_marked(base: Alphabet, tracks) -> Dfa:
    out = lang.universal_language(tracked_alphabet(base, len(tracks)))
    for i, t in enumerate(tracks):
        if _kind(t) == "fo":
            out = lang.intersect(out, _single_mark(base, tracks, (i,)))
    return out


def _lift(dfa: Dfa, base: Alphabet, old_tracks, new_tracks) -> Dfa:
    """Cylindrify from old_tracks to new_tracks (a supersequence as a set),
    re-imposing the single-mark constraint on added first-order tracks."""
    pos = {t: i for i, t in enumerate(old_tracks)}
    al = tracked_alphabet(base, len(new_tracks))
    delta = {}
    for (a, bits) in al:
        old_bits = tuple(bits[new_tracks.index(t)] for t in old_tracks)
        delta[(a, bits)] = dfa.delta[(a, old_bits)]
    out = Dfa(al, dfa.n, dfa.initial, dfa.accepting, delta)
    for i, t in enumerate(new_tracks):
        if t not in pos and _kind(t) == "fo":
            out = lang.intersect(out, _single_mark(base, new_tracks, (i,)))
    return out.canonical()


def _atom_less(base: Alphabet, tracks, xi, yi) -> Dfa:
    al = tracked_alphabet(base, len(tracks))
    # 0: neither seen, 1: x seen, 2: x then y, 3: dead
    delta = {}
    for (b, bits) in al:
        bx, by = bits[xi], bits[yi]
        row = [0, 1, 2, 3]
        if bx and by:
            row[0] = 3
        elif bx:
            row[0] = 1
        elif by:
            row[0] = 3
        if bx:
            row[1] = 3
        elif by:
            row[1] = 2
        if bx or by:
            row[2] = 3
        delta[(b, bits)] = tuple(row)
    return Dfa(al, 4, 0, (2,), delta).canonical()


def _project_track(dfa: Dfa, base: Alphabet, tracks, t_index) -> Dfa:
    """Existentially quantify a track: erase it, determinize the result."""
    al = tracked_alphabet(base, len(tracks) - 1)
    rows = {(a, bits): [dfa.delta[(a, bits[:t_index] + (bit,) + bits[t_index:])]
                        for bit in (0, 1)]
            for (a, bits) in al}

    def step(states, letter):
        return frozenset([row[q] for row in rows[letter] for q in states])

    return lang.explore(al, frozenset([dfa.initial]), step,
                        lambda states: not dfa.accepting.isdisjoint(states)).canonical()


def _compile(phi, base: Alphabet):
    """Returns (dfa, tracks); tracks is the sorted tuple of free variables.
    Invariant: the language is contained in the well-marked words of its
    first-order tracks."""
    tag = phi[0]
    if tag in ("true", "false"):
        al = tracked_alphabet(base, 0)
        d = lang.universal_language(al) if tag == "true" else lang.empty_language(al)
        return d, ()
    if tag == "letter":
        tracks = (phi[2],)
        return _single_mark(base, tracks, (0,), lambda b, bits: b == phi[1]), tracks
    if tag in ("less", "eq", "in"):
        x, y = phi[1], phi[2]
        if x == y:
            if tag == "eq":
                tracks = (x,)
                return _single_mark(base, tracks, (0,)), tracks
            if tag == "less":
                tracks = (x,)
                return lang.empty_language(tracked_alphabet(base, 1)), tracks
            raise MsoError("variable cannot be a member of itself")
        tracks = tuple(sorted((x, y)))
        xi, yi = tracks.index(x), tracks.index(y)
        if tag == "less":
            return _atom_less(base, tracks, xi, yi), tracks
        if tag == "eq":   # one position carries both marks
            both = lambda b, bits: bits[xi] and bits[yi]
            return _single_mark(base, tracks, (xi, yi), both), tracks
        return _single_mark(base, tracks, (xi,), lambda b, bits: bits[yi]), tracks
    if tag == "not":
        sub, tracks = _compile(phi[1], base)
        comp = lang.complement(sub)
        out = lang.intersect(comp, _well_marked(base, tracks))
        return out, tracks
    if tag in ("and", "or"):
        first, rest = lang.unchain(phi, ("and", "or"))
        d1, t1 = _compile(first, base)
        for tag, right in rest:
            d2, t2 = _compile(right, base)
            tracks = tuple(sorted(set(t1) | set(t2)))
            d1 = _lift(d1, base, t1, tracks)
            d2 = _lift(d2, base, t2, tracks)
            d1 = lang.intersect(d1, d2) if tag == "and" else lang.union(d1, d2)
            t1 = tracks
            if d1.n > STATE_CAP:
                raise MsoError("state cap exceeded while compiling")
        return d1, t1
    if tag == "exists":
        v = phi[1]
        sub, tracks = _compile(phi[2], base)
        if v not in tracks:
            # quantifying a variable that does not occur: a first-order
            # witness needs a position, so conjoin a fresh single-mark track
            if _kind(v) == "so":
                return sub, tracks
            tracks2 = tuple(sorted(set(tracks) | {v}))
            sub = _lift(sub, base, tracks, tracks2)
            tracks = tracks2
        out = _project_track(sub, base, tracks, tracks.index(v))
        if out.n > STATE_CAP:
            raise MsoError("state cap exceeded while compiling")
        return out, tracks[:tracks.index(v)] + tracks[tracks.index(v) + 1:]
    raise MsoError("unknown node %r" % (tag,))


def compile_marked_automaton(phi, variables, base: Alphabet) -> Dfa:
    """The canonical DFA over A x {0,1}^k recognizing satisfying markings,
    with tracks in the declared variable order."""
    phi = rename_bound(phi)
    fv = free_vars(phi)
    if not fv <= set(variables):
        raise MsoError("free variables %r not declared" % (sorted(fv - set(variables)),))
    dfa, tracks = _compile(phi, base)
    return _lift(dfa, base, tracks, tuple(variables))


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
        if _kind(v) == "fo":
            raise MsoError("count_sets expects second-order variables only")
    return count_to_linrep(phi, variables, base)


def _min_split_languages(marked: Dfa, base: Alphabet, k: int, pset) -> dict:
    """For each state q: the words u (nonempty) such that running the marked
    automaton on u with the tracks in `pset` marked at the last position
    (and nothing else) reaches q, where any does.  States (p, r): the run
    with no marks is in p, the run that marks the letter just read is in r
    (None before the first letter); one exploration serves every q."""
    chi = tuple(1 if i in pset else 0 for i in range(k))
    zero = (0,) * k
    rows = {a: (marked.delta[(a, zero)], marked.delta[(a, chi)]) for a in base}

    def step(s, a):
        unmarked, marking = rows[a]
        return unmarked[s[0]], marking[s[0]]

    marks = []   # r of each state, in the numbering
    pairs = lang.explore(base, (marked.initial, None), step, lambda s: marks.append(s[1]))
    return {q: lang.with_accepting(pairs, [i for i, r in enumerate(marks) if r == q])
            for q in sorted(set(marks) - {None})}


def _restrict_tracks(marked: Dfa, base: Alphabet, k: int, pset, q: int) -> Dfa:
    """The suffix automaton: start from q, keep the tracks outside pset
    (those in pset are forced to zero)."""
    keep = [i for i in range(k) if i not in pset]
    al = tracked_alphabet(base, len(keep))
    delta = {}
    for (a, bits) in al:
        full = [0] * k
        for i, b in zip(keep, bits):
            full[i] = b
        delta[(a, bits)] = marked.delta[(a, tuple(full))]
    return Dfa(al, marked.n, q, marked.accepting, delta).canonical()


def _cplc_from_marked(marked: Dfa, base: Alphabet, k: int) -> Cplc:
    """One term per split (the tracks marked at the least marked position,
    the state q reached there) and per term of the suffix count from q,
    collected first and normalized once."""
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
                suffix = _restrict_tracks(marked, base, k, pset, q)
                terms.extend((coef, (prefix,) + fs)
                             for coef, fs in _cplc_from_marked(suffix, base, k - size).terms)
    return Cplc(base, terms)


def count_to_cplc(phi, variables, base: Alphabet) -> Cplc:
    """#phi as an integer combination of Cauchy products of indicators.

    The recursion splits every valuation on the set of variables taking the
    minimal position and on the automaton state reached there; all declared
    variables must be first-order.
    """
    for v in variables:
        if _kind(v) == "so":
            raise MsoError("count_to_cplc requires first-order variables; "
                           "use count_to_linrep for %r" % (v,))
    marked = compile_marked_automaton(phi, variables, base)
    return _cplc_from_marked(marked, base, len(variables))


# ---------------------------------------------------------------------------
# surface syntax:  count[x,y] a(x) & b(y) & x < y
#
# precedence:  ->  |  &  !,  quantifiers reach as far right as possible.
# sugar: <=, >=, >, !=, succ(x,y), first(x), last(x), forall v. phi.


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
        left = self.chain(self.conjunction, {"|": "or"})
        if self.take("->"):
            return ("or", ("not", left), self.formula())
        return left

    def conjunction(self):
        return self.chain(self.unary, {"&": "and"})

    def unary(self):
        if self.take("!"):
            return ("not", self.unary())
        if self.word("exists"):
            v = self.ident()
            self.expect(".")
            return ("exists", v, self.formula())
        if self.word("forall"):
            v = self.ident()
            self.expect(".")
            return ("not", ("exists", v, ("not", self.formula())))
        if self.take("("):
            node = self.formula()
            self.expect(")")
            return node
        return self.atom()

    def atom(self):
        if self.word("true"):
            return ("true",)
        if self.word("false"):
            return ("false",)
        if self.word("succ"):
            return _succ(*self.arguments(2))
        if self.word("first"):
            return ("not", ("exists", "_z", ("less", "_z", *self.arguments(1))))
        if self.word("last"):
            return ("not", ("exists", "_z", ("less", *self.arguments(1), "_z")))
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
            ("not", ("exists", "_z", ("and", ("less", x, "_z"),
                                      ("less", "_z", y)))))


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
