"""Regular languages over finite alphabets: regexes, canonical DFAs,
transition monoids.

DFAs are always complete and, once built through `canonical`, minimal with
states renumbered by breadth-first search from the initial state.  Two
canonical DFAs are structurally equal iff they accept the same language,
which lets the rest of the package use them as dictionary keys.  One
breadth-first search, `explore`, numbers the states of the products and
subset constructions and of the canonical form itself.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import lcm


class Alphabet:
    """An ordered finite alphabet.  Letters are arbitrary hashable symbols
    (strings for surface syntax, tuples for marked-track alphabets)."""

    __slots__ = ("letters", "_index")

    def __init__(self, letters):
        self.letters = tuple(letters)
        self._index = {a: i for i, a in enumerate(self.letters)}
        if len(self._index) != len(self.letters):
            raise ValueError("duplicate letters")

    def index(self, a):
        return self._index[a]

    def __contains__(self, a):
        return a in self._index

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "Alphabet(%r)" % (self.letters,)


class Dfa:
    """Complete deterministic automaton.

    delta maps each letter to a tuple of successor states (indexed by
    state).  Use `Dfa.canonical` to obtain the minimal BFS-numbered form.
    """

    __slots__ = ("alphabet", "n", "initial", "accepting", "delta", "_key", "_canonical",
                 "_explored")

    def __init__(self, alphabet: Alphabet, n: int, initial: int,
                 accepting, delta):
        self.alphabet = alphabet
        self.n = n
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.delta = {a: tuple(delta[a]) for a in alphabet}
        for a in alphabet:
            if len(self.delta[a]) != n:
                raise ValueError("incomplete transition table")
        self._key = None
        self._canonical = False   # True once known to be in canonical form
        self._explored = False    # True once known to be numbered as `explore` numbers

    # -- structural identity -------------------------------------------------

    def key(self):
        if self._key is None:
            self._key = (self.alphabet.letters, self.n, self.initial,
                         tuple(sorted(self.accepting)),
                         tuple([self.delta[a] for a in self.alphabet]))
        return self._key

    def __eq__(self, other):
        return isinstance(other, Dfa) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # -- language operations --------------------------------------------------

    def step(self, state: int, a) -> int:
        return self.delta[a][state]

    def run(self, word, start=None) -> int:
        q = self.initial if start is None else start
        for a in word:
            q = self.delta[a][q]
        return q

    def accepts(self, word) -> bool:
        return self.run(word) in self.accepting

    def accepts_epsilon(self) -> bool:
        return self.initial in self.accepting

    def is_empty_language(self) -> bool:
        return not self.accepting

    def transformation(self, word):
        """The state map induced by a word, as a tuple."""
        maps = tuple(range(self.n))
        for a in word:
            row = self.delta[a]
            maps = tuple([row[q] for q in maps])
        return maps

    # -- canonicalization ------------------------------------------------------

    def canonical(self) -> "Dfa":
        """The canonical form; a DFA already in it is returned as is, so
        that functions built from the same factors share their DFAs."""
        if self._canonical:
            return self
        result = _canonicalize(self)
        result._canonical = True
        return result

    def __repr__(self):
        return "Dfa(n=%d, accepting=%s)" % (self.n, sorted(self.accepting))


def explore(alphabet: Alphabet, start, step, accepting) -> Dfa:
    """The automaton of the states reachable from `start`.  States are any
    hashable values; `step(state, letter)` is the successor of a state and
    `accepting(state)` its acceptance.  States are numbered 0, 1, ... in the
    breadth-first order of their discovery, letters in alphabet order, so
    `start` is state 0, and `accepting` is called once per state in this
    order.  The result is complete but not minimized."""
    index = {start: 0}
    states = [start]
    delta = {a: [] for a in alphabet.letters}
    for s in states:            # the list grows while it is read: a queue
        for a, row in delta.items():
            t = step(s, a)
            i = index.get(t)
            if i is None:
                i = index[t] = len(states)
                states.append(t)
            row.append(i)
    dfa = Dfa(alphabet, len(states), 0, [i for i, s in enumerate(states) if accepting(s)], delta)
    dfa._explored = True
    return dfa


def _canonicalize(dfa: Dfa) -> Dfa:
    """Moore minimization of the reachable part, renumbered breadth-first
    (an automaton `explore` has built is that part already)."""
    delta = dfa.delta
    reach = dfa if dfa._explored else explore(
        dfa.alphabet, dfa.initial, lambda q, a: delta[a][q], dfa.accepting.__contains__)
    rows = [reach.delta[a] for a in reach.alphabet.letters]
    cls = [int(q in reach.accepting) for q in range(reach.n)]
    count = len(set(cls))
    while True:
        renum = {}
        cls = [renum.setdefault(sig, len(renum))
               for sig in zip(cls, *[[cls[t] for t in row] for row in rows])]
        if len(renum) == count:
            break
        count = len(renum)
    if count == reach.n:        # already minimal, and numbered as required
        return reach
    # one state per class, the first in the numbering, stands for it
    first = {}
    for q, c in enumerate(cls):
        first.setdefault(c, q)
    least = [first[c] for c in cls]
    return explore(reach.alphabet, 0, lambda q, a: least[reach.delta[a][q]],
                   reach.accepting.__contains__)


# ---------------------------------------------------------------------------
# basic language constructors (all canonical)


def empty_language(alphabet: Alphabet) -> Dfa:
    return Dfa(alphabet, 1, 0, (), {a: (0,) for a in alphabet}).canonical()


def epsilon_language(alphabet: Alphabet) -> Dfa:
    delta = {a: (1, 1) for a in alphabet}
    return Dfa(alphabet, 2, 0, (0,), delta).canonical()


def universal_language(alphabet: Alphabet) -> Dfa:
    return Dfa(alphabet, 1, 0, (0,), {a: (0,) for a in alphabet}).canonical()


def letter_language(alphabet: Alphabet, letter) -> Dfa:
    # states: 0 start, 1 accept, 2 sink
    delta = {a: (1 if a == letter else 2, 2, 2) for a in alphabet}
    return Dfa(alphabet, 3, 0, (1,), delta).canonical()


def with_accepting(dfa: Dfa, accepting) -> Dfa:
    """The canonical DFA of dfa's transitions with other accepting states."""
    out = Dfa(dfa.alphabet, dfa.n, dfa.initial, accepting, dfa.delta)
    out._explored = dfa._explored
    return out.canonical()


def complement(dfa: Dfa) -> Dfa:
    return with_accepting(dfa, frozenset(range(dfa.n)) - dfa.accepting)


def product(x: Dfa, y: Dfa, accept) -> Dfa:
    """The product automaton; a pair of states accepts where
    accept(p accepting in x, q accepting in y) holds."""
    _same_alphabet(x, y)
    xd, yd = x.delta, y.delta
    return explore(x.alphabet, (x.initial, y.initial),
                   lambda s, a: (xd[a][s[0]], yd[a][s[1]]),
                   lambda s: accept(s[0] in x.accepting, s[1] in y.accepting)).canonical()


def intersect(x: Dfa, y: Dfa) -> Dfa:
    return product(x, y, operator.and_)


def union(x: Dfa, y: Dfa) -> Dfa:
    return product(x, y, operator.or_)


def _same_alphabet(x: Dfa, y: Dfa):
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")


# subset constructions (concatenation, star) ---------------------------------


def concat(x: Dfa, y: Dfa) -> Dfa:
    """States (p, S): x is in state p, and the copies of y started after
    each prefix that x accepts are in the states S."""
    _same_alphabet(x, y)

    def enter(p, states):
        return states | {y.initial} if p in x.accepting else states

    def step(s, a):
        p, states = s
        p, row = x.delta[a][p], y.delta[a]
        return p, enter(p, frozenset([row[q] for q in states]))

    return explore(x.alphabet, (x.initial, enter(x.initial, frozenset())), step,
                   lambda s: not y.accepting.isdisjoint(s[1])).canonical()


def star(x: Dfa) -> Dfa:
    """States: None before the first letter, then the set of states of the
    copies of x that are running; a copy restarts where one accepts."""
    def step(states, a):
        row = x.delta[a]
        out = frozenset([row[q] for q in ((x.initial,) if states is None else states)])
        return out | {x.initial} if not x.accepting.isdisjoint(out) else out

    return explore(x.alphabet, None, step,
                   lambda s: s is None or not x.accepting.isdisjoint(s)).canonical()


def residual_language(dfa: Dfa, word) -> Dfa:
    """The canonical DFA of u^{-1} L."""
    q = dfa.run(word)
    return Dfa(dfa.alphabet, dfa.n, q, dfa.accepting, dfa.delta).canonical()


def strip_epsilon(dfa: Dfa) -> Dfa:
    """The canonical DFA of L minus the empty word."""
    if not dfa.accepts_epsilon():
        return dfa.canonical()
    # add a non-accepting copy of the initial state
    n = dfa.n + 1
    delta = {a: tuple(dfa.delta[a]) + (dfa.delta[a][dfa.initial],)
             for a in dfa.alphabet}
    return Dfa(dfa.alphabet, n, dfa.n, dfa.accepting, delta).canonical()


# ---------------------------------------------------------------------------
# the scanner shared by the three surface syntaxes (regex, .zexpr, .zmso)


_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | frozenset("0123456789")


class Scanner:
    """A cursor over a source text for recursive-descent parsers.  Blanks
    between tokens are skipped; every error is raised as `error` with the
    position it was found at."""

    def __init__(self, text: str, error):
        self.text = text
        self.pos = 0
        self.error = error

    def fail(self, msg):
        raise self.error("%s at position %d" % (msg, self.pos))

    def peek(self):
        """The next non-blank character, moving past the blanks before it;
        None at the end."""
        text, n = self.text, len(self.text)
        while self.pos < n and text[self.pos].isspace():
            self.pos += 1
        return text[self.pos] if self.pos < n else None

    def take(self, sym: str) -> bool:
        """Consume `sym` if the text continues with it."""
        self.peek()
        if self.text.startswith(sym, self.pos):
            self.pos += len(sym)
            return True
        return False

    def expect(self, sym: str):
        if not self.take(sym):
            self.fail("expected %r" % sym)

    def word(self, keyword: str) -> bool:
        """Consume `keyword` if it is followed by an identifier boundary."""
        self.peek()
        end = self.pos + len(keyword)
        if self.text.startswith(keyword, self.pos) and self.text[end:end + 1] not in _IDENT_CHARS:
            self.pos = end
            return True
        return False

    def ident(self) -> str:
        if self.peek() not in _IDENT_START:
            self.fail("expected identifier")
        start = self.pos
        while self.text[self.pos:self.pos + 1] in _IDENT_CHARS:
            self.pos += 1
        return self.text[start:self.pos]

    def chain(self, operand, ops: dict):
        """operand (op operand)*, folded to the left; `ops` maps each
        operator symbol to its AST tag."""
        node = operand()
        while True:
            tag = next((ops[op] for op in ops if self.take(op)), None)
            if tag is None:
                return node
            node = (tag, node, operand())

    def finish(self, node):
        """`node`, after checking that nothing but blanks follows."""
        if self.peek() is not None:
            self.fail("trailing input")
        return node


def unchain(node, tags):
    """(first, rest) of a chain that `Scanner.chain` folded to the left:
    `first` is its leftmost operand, and `rest` the (tag, operand) pairs
    after it, in order.  Walking `rest` in a loop lets a long flat chain
    be folded without recursion."""
    rest = []
    while node[0] in tags:
        rest.append((node[0], node[2]))
        node = node[1]
    return node, rest[::-1]


# ---------------------------------------------------------------------------
# regex surface syntax
#
# grammar:   union:   e  ::= e1 ('|' e1)*
#            inter:   e1 ::= e2 ('&' e2)*
#            concat:  e2 ::= e3+
#            unary:   e3 ::= atom '*'*  |  '!' e3
#            atom:    letter | '(' e ')' | '()' (empty word) | '∅'
# '!' applies to the starred operand after it: "!a*" is !(a*).


class RegexError(ValueError):
    pass


EMPTY = ("empty",)
EPS = ("eps",)


def parse_regex(text: str, alphabet: Alphabet):
    """Parse the regex surface syntax into a small tuple AST."""
    s = Scanner(text, RegexError)
    return s.finish(regex_union(s, alphabet))


def regex_union(s: Scanner, alphabet: Alphabet):
    """The regex starting at the scanner's position; it ends before the
    first ')' that it does not open itself."""
    return s.chain(lambda: _regex_inter(s, alphabet), {"|": "or"})


def _regex_inter(s: Scanner, alphabet: Alphabet):
    return s.chain(lambda: _regex_concat(s, alphabet), {"&": "and"})


def _regex_concat(s: Scanner, alphabet: Alphabet):
    node = _regex_unary(s, alphabet)
    while s.peek() not in (None, "|", "&", ")"):
        node = ("cat", node, _regex_unary(s, alphabet))
    return node


def _regex_unary(s: Scanner, alphabet: Alphabet):
    node = ("not", _regex_unary(s, alphabet)) if s.take("!") else _regex_atom(s, alphabet)
    while s.take("*"):
        node = ("star", node)
    return node


def _regex_atom(s: Scanner, alphabet: Alphabet):
    c = s.peek()
    if c is None:
        s.fail("unexpected end of regex")
    if s.take("("):
        if s.take(")"):
            return EPS
        node = regex_union(s, alphabet)
        s.expect(")")
        return node
    if c == "∅" or c == "0" and "0" not in alphabet:
        node = EMPTY
    elif c in alphabet:
        node = ("lit", c)
    else:
        s.fail("unexpected character %r" % c)
    s.pos += 1
    return node


def regex_to_dfa(node, alphabet: Alphabet) -> Dfa:
    """Compile a regex AST to its canonical minimal DFA."""
    tag = node[0]
    if tag == "empty":
        return empty_language(alphabet)
    if tag == "eps":
        return epsilon_language(alphabet)
    if tag == "lit":
        return letter_language(alphabet, node[1])
    if tag in ("or", "and", "cat"):
        node, rest = unchain(node, ("or", "and", "cat"))
        dfa = regex_to_dfa(node, alphabet)
        for tag, right in rest:
            op = union if tag == "or" else intersect if tag == "and" else concat
            dfa = op(dfa, regex_to_dfa(right, alphabet))
        return dfa
    if tag == "not":
        return complement(regex_to_dfa(node[1], alphabet))
    if tag == "star":
        return star(regex_to_dfa(node[1], alphabet))
    raise RegexError("unknown AST node %r" % (tag,))


def parse_alphabet_header(text: str, error):
    """(alphabet, body) of a source text whose first line, after blank and
    '#' comment lines are dropped, is `alphabet = a b ...` (or `= ab...`).
    A missing or malformed declaration raises `error`."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    keyword, eq, letters = (lines or [""])[0].partition("=")
    if keyword.strip() != "alphabet" or not eq:
        raise error("the first line must declare 'alphabet = ...'")
    letters = letters.split()
    if len(letters) == 1 and len(letters[0]) > 1:
        letters = list(letters[0])
    return text_alphabet(letters, error), "\n".join(lines[1:])


def text_alphabet(letters, error) -> Alphabet:
    """The alphabet of a source text or a JSON payload: a list of distinct
    one-character strings, as regexes and words read one character per
    letter.  Anything else raises `error`."""
    if not (isinstance(letters, list)
            and all(isinstance(a, str) and len(a) == 1 for a in letters)):
        raise error("letters must be a list of single characters (regexes and "
                    "words read one character per letter), got %r" % (letters,))
    if len(set(letters)) != len(letters):
        raise error("duplicate letters in the alphabet")
    return Alphabet(letters)


def compile_regex(text: str, alphabet: Alphabet) -> Dfa:
    return regex_to_dfa(parse_regex(text, alphabet), alphabet)


# ---------------------------------------------------------------------------
# finite monoids


class MonoidTooLarge(RuntimeError):
    pass


@dataclass(frozen=True)
class FiniteMonoid:
    """Multiplication table presentation; elements are 0..size-1."""
    size: int
    table: tuple           # table[x][y] = x*y
    unit: int

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def check_associative(self, generators) -> bool:
        """Whether `unit` is a two-sided unit and the table is associative on
        the submonoid T generated by `generators`.  Checking (xy)a = x(ya)
        for x, y in T and generators a covers every triple of T, by
        induction on the third factor: (xy)(za) = ((xy)z)a = (x(yz))a =
        x((yz)a) = x(y(za)).  Cost |generators| * |T|^2."""
        if any(self.mul(self.unit, x) != x or self.mul(x, self.unit) != x
               for x in range(self.size)):
            return False
        generators = set(generators)
        sub = [self.unit]
        seen = {self.unit}
        for x in sub:
            for a in generators:
                y = self.mul(x, a)
                if y not in seen:
                    seen.add(y)
                    sub.append(y)
        return all(self.mul(self.mul(x, y), a) == self.mul(x, self.mul(y, a))
                   for x in sub for y in sub for a in generators)

    def is_idempotent(self, x: int) -> bool:
        return self.mul(x, x) == x

    def power(self, x: int, e: int) -> int:
        acc = self.unit
        b = x
        while e:
            if e & 1:
                acc = self.mul(acc, b)
            b = self.mul(b, b)
            e >>= 1
        return acc

    def element_index_period(self, x: int):
        """(index, period) of the cyclic subsemigroup generated by x."""
        seen = {}
        cur = x
        k = 1
        while cur not in seen:
            seen[cur] = k
            cur = self.mul(cur, x)
            k += 1
        index = seen[cur]
        period = k - seen[cur]
        return index, period

    @cached_property
    def aperiodicity(self):
        """(aperiodic?, omega) where x^omega is idempotent for every x,
        computed once per monoid."""
        indices, periods = zip(*map(self.element_index_period, range(self.size)))
        base = lcm(*periods)
        return all(p == 1 for p in periods), base * -(-max(indices) // base)


class MonoidMorphism:
    """A morphism from the free monoid over an alphabet, given by letter images."""

    __slots__ = ("monoid", "alphabet", "letter_images", "_j_class")

    def __init__(self, monoid: FiniteMonoid, alphabet: Alphabet, letter_images):
        self.monoid = monoid
        self.alphabet = alphabet
        self.letter_images = dict(letter_images)
        self._j_class = None

    def j_class(self) -> list:
        """J-class index of each element of the submonoid generated by the
        letter images, for that submonoid's Green J relation: the strongly
        connected components of the Cayley graph x -> xa, x -> ax over the
        letter images.  Computed once per morphism."""
        if self._j_class is None:
            m = self.monoid
            gens = sorted(set(self.letter_images.values()))
            self._j_class = _strong_components(
                m.size, lambda x: [m.mul(x, g) for g in gens] + [m.mul(g, x) for g in gens])
        return self._j_class

    def image(self, word) -> int:
        x = self.monoid.unit
        for a in word:
            x = self.monoid.mul(x, self.letter_images[a])
        return x

    def shortest_preimage(self, target: int):
        """Shortlex-least word mapping to `target`, or None."""
        if target == self.monoid.unit:
            return ()
        seen = {self.monoid.unit}
        queue = deque([(self.monoid.unit, ())])
        while queue:
            x, w = queue.popleft()
            for a in self.alphabet:
                y = self.monoid.mul(x, self.letter_images[a])
                if y in seen:
                    continue
                w2 = w + (a,)
                if y == target:
                    return w2
                seen.add(y)
                queue.append((y, w2))
        return None


def _strong_components(n: int, succ) -> list:
    """Component index of each node 0..n-1 of a graph (Tarjan, iterative)."""
    index, low, comp = {}, {}, [None] * n
    stack, on_stack = [], set()
    count = 0
    for root in range(n):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
    return comp


def transition_monoid(dfa: Dfa, cap: int = 100000):
    """The transition monoid of a DFA with the induced letter morphism."""
    return monoid_from_generators(
        dfa.alphabet,
        {a: tuple(dfa.delta[a]) for a in dfa.alphabet},
        unit=tuple(range(dfa.n)),
        compose=lambda f, g: tuple([g[q] for q in f]),
        cap=cap,
    )


def monoid_from_generators(alphabet: Alphabet, gens, unit, compose, cap=100000):
    """Close a set of generators under an associative composition.

    Returns (FiniteMonoid, MonoidMorphism, elements) where `elements` lists
    the concrete values indexed by element number.
    """
    idx = {unit: 0}
    elements = [unit]
    queue = deque([unit])
    while queue:
        x = queue.popleft()
        for a in alphabet:
            y = compose(x, gens[a])
            if y not in idx:
                if len(elements) >= cap:
                    raise MonoidTooLarge("monoid closure exceeded cap %d" % cap)
                idx[y] = len(elements)
                elements.append(y)
                queue.append(y)
    size = len(elements)
    table = []
    for x in elements:
        # right-multiplication by each element: compute by composing values
        row = [idx[compose(x, y)] for y in elements]
        table.append(tuple(row))
    monoid = FiniteMonoid(size, tuple(table), 0)
    morphism = MonoidMorphism(monoid, alphabet,
                              {a: idx[compose(unit, gens[a])] for a in alphabet})
    return monoid, morphism, elements


# ---------------------------------------------------------------------------
# JSON serialization of DFAs


def dfa_to_json(dfa: Dfa) -> dict:
    letters = list(dfa.alphabet.letters)
    if not all(isinstance(a, str) for a in letters):
        raise ValueError("JSON export requires string letters")
    return {
        "alphabet": letters,
        "states": dfa.n,
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "delta": {a: list(dfa.delta[a]) for a in letters},
    }


def dfa_from_json(data: dict) -> Dfa:
    """Inverse of dfa_to_json; raises ValueError on a malformed payload,
    including state indices outside 0..states-1."""
    try:
        alphabet = text_alphabet(data["alphabet"], ValueError)
        n, initial = data["states"], data["initial"]
        accepting = list(data["accepting"])
        if not isinstance(data["delta"], dict):
            raise ValueError("DFA delta must map letters to successor lists")
        delta = {a: list(data["delta"][a]) for a in alphabet}
    except KeyError as exc:
        raise ValueError("DFA without %s" % exc) from None
    except TypeError as exc:
        raise ValueError("malformed DFA: %s" % exc) from None
    if type(n) is not int or n < 1:
        raise ValueError("DFA needs a positive number of states, got %r" % (n,))
    for q in [initial, *accepting, *(q for row in delta.values() for q in row)]:
        if not is_index(q, n):
            raise ValueError("DFA state %r outside 0..%d" % (q, n - 1))
    return Dfa(alphabet, n, initial, accepting, delta)


def is_index(q, n: int) -> bool:
    """Whether q is an int (not a bool) in 0..n-1."""
    return type(q) is int and 0 <= q < n
