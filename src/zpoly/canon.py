"""k-residual transducers and the star-freeness decision.

The k-residual transducer of a level-k function explores residuals f|_w in
breadth-first shortlex order, merging residuals that agree up to growth
degree k-1.  Transitions carry the correction term f|_{wa} - f|_v (a
function of growth degree at most k-1) and states output f(w).  The machine
computes f(a1..an) as the sum of the transition labels applied to the
successive suffixes plus the output of the final state.

Merges are decided on the row vectors I mu(w) of one minimal representation
of f, which determine the residuals f|_w: equal vectors merge, and at k >= 1
the growth search evaluates a nonzero difference from its vector.  One
`analysis.Analysis` of f serves a whole question, `residual_transducer(f,
k)` or `star_free(f)`, and is dropped when the question ends.  Each search
of the question runs on a function h at its row vector in f's
representation: a difference h = f|_{ua} - f|_v at a merge, or a
transition label that `star_free` recurses into, at the vector
v_q mu(a) - v_delta(q,a) of its state vectors (its own labels are again
integer combinations of residuals of f).  It reads f's minimal
representation, f's product monoid, f's patterns and f's table of matrix
powers, and builds none of its own.

Why f's monoid serves h.  A term of a residual f|_x is a term of f whose
first factor L is replaced by x^{-1}L, with epsilon split off; the
canonical DFA of that factor is the part of L's DFA reachable from the
state reached by x, minimized, and its transition monoid is a quotient of
L's.  The epsilon split adds nothing that the shared letter tracker does
not see, since it tells the empty word from every other.  So every factor
of an integer combination h of residuals of f is a factor of f or such a
residual of one, and h's product monoid, the product of its factors'
transition monoids and the tracker, is a quotient of f's: words with the
same image under f's morphism have the same image under h's.  Hence an
f-idempotent pump is h-idempotent, and a factorization forest under f's
morphism is also one under h's, so every pattern f's search reads is a
pattern h's search could read.

Star-freeness is decided by induction on the growth degree: at degree <= 0
the function has finitely many residuals and the question reduces to
aperiodicity of its minimal automaton, the 0-residual transducer, whose
labels are all zero; at degree k >= 1 the function is star-free iff its
k-residual transducer is counter-free and every transition label is
star-free.  A label has degree at most k-1, so the recursion is at most
degree(f) + 1 deep.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from . import analysis, lang
from .analysis import BudgetExhausted, SearchBudget
from .cplc import Cplc


class UncertainConstruction(RuntimeError):
    """An underlying growth decision ran out of budget; no machine is
    produced rather than risking a wrong one."""


class StateBudgetExceeded(RuntimeError):
    pass


@dataclass(slots=True)
class ResidualTransducer:
    alphabet: object
    k: int
    state_words: list            # word w per state (shortlex BFS); its residual is f.residual(w)
    delta: dict                  # (state, letter) -> state
    labels: dict                 # (state, letter) -> Cplc of level <= k-1
    outputs: list                # integer f(state word)
    initial: int = 0

    @property
    def n_states(self) -> int:
        return len(self.state_words)

    def step(self, q: int, a) -> int:
        return self.delta[(q, a)]

    def eval(self, word) -> int:
        word = tuple(word)
        total = 0
        q = self.initial
        for i, a in enumerate(word):
            total += self.labels[(q, a)].eval(word[i + 1:])
            q = self.delta[(q, a)]
        return total + self.outputs[q]

    def underlying_dfa(self) -> lang.Dfa:
        delta = {a: tuple(self.delta[(q, a)] for q in range(self.n_states))
                 for a in self.alphabet}
        return lang.Dfa(self.alphabet, self.n_states, self.initial, (), delta)

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet.letters),
            "k": self.k,
            "states": [{"word": "".join(map(str, w)), "output": out}
                       for w, out in zip(self.state_words, self.outputs)],
            "initial": self.initial,
            "transitions": [
                {"from": q, "letter": a, "to": self.delta[(q, a)],
                 "label": self.labels[(q, a)].to_json()}
                for q in range(self.n_states) for a in self.alphabet
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    def to_dot(self) -> str:
        lines = ["digraph transducer {", "  rankdir=LR;", "  node [shape=circle];"]
        for q, (w, out) in enumerate(zip(self.state_words, self.outputs)):
            name = "".join(map(str, w)) or "ε"
            lines.append('  q%d [label="%s | %d"];' % (q, name, out))
        for q in range(self.n_states):
            for a in self.alphabet:
                label = self.labels[(q, a)]
                text = "0" if not label.terms else repr(label)
                lines.append('  q%d -> q%d [label="%s / %s"];'
                             % (q, self.delta[(q, a)], a, text))
        lines.append("}")
        return "\n".join(lines)


def residual_transducer(f: Cplc, k: int, budget: SearchBudget | None = None,
                        max_states: int = 64) -> ResidualTransducer:
    """Algorithm: breadth-first shortlex exploration of residuals modulo
    growth degree k-1.  In a minimal representation (I, mu, F) of f the
    residual f|_u is the series of the row vector I mu(u), and distinct
    vectors give distinct series; a nonzero difference dv of two vectors is
    tested with equiv_mod_k on the analysis of f at dv (module docstring).

    Raises UncertainConstruction if any merge test runs out of budget, and
    StateBudgetExceeded if more than max_states classes appear.
    """
    return _machine(f, k, analysis.Analysis.of(f, budget), max_states)[0]


def _machine(f: Cplc, k: int, an: analysis.Analysis, max_states: int = 64):
    """The k-residual transducer of f and the row vector of each state,
    where f is the series of `an.rep`: f's own analysis, or, for a
    transition label, the analysis of an outer function at the label's
    vector."""
    rep = an.rep
    state_words = [()]
    residuals = [f]
    vectors = [rep.I]
    delta = {}
    labels = {}
    queue = deque([0])

    def merges(g, v, j):
        if v == vectors[j]:
            return True
        if k <= 0:
            return False
        dv = [x - y for x, y in zip(v, vectors[j])]
        try:
            return analysis.equiv_mod_k(g, residuals[j], k - 1, rep=an.at(dv))
        except BudgetExhausted as exc:
            raise UncertainConstruction(str(exc)) from exc

    while queue:
        q = queue.popleft()
        for a in f.alphabet:
            g = residuals[q].residual((a,))
            v = rep.mats[a].vecmat(vectors[q])
            target = next((j for j in range(len(vectors)) if merges(g, v, j)), None)
            if target is None:
                if len(residuals) >= max_states:
                    raise StateBudgetExceeded(
                        "more than %d residual classes at level %d"
                        % (max_states, k))
                target = len(residuals)
                state_words.append(state_words[q] + (a,))
                residuals.append(g)
                vectors.append(v)
                queue.append(target)
            key = (q, a)
            delta[key] = target
            labels[key] = g.sub(residuals[target])
    outputs = [r.eval_at_epsilon() for r in residuals]
    return ResidualTransducer(f.alphabet, k, state_words, delta, labels, outputs), vectors


# ---------------------------------------------------------------------------
# counter-freeness


@dataclass
class CounterWitness:
    state: int
    word: tuple
    period: int    # delta(state, word^period) = state but delta(state, word) != state


def counter_free(t: ResidualTransducer):
    """(True, None) when the transition monoid is aperiodic, else a counter."""
    dfa = t.underlying_dfa()
    monoid, morphism, elements = lang.transition_monoid(dfa)
    aperiodic, _omega = monoid.aperiodicity
    if aperiodic:
        return True, None
    # find a concrete counter: a state on a nontrivial cycle of some word
    for x in range(monoid.size):
        _idx, per = monoid.element_index_period(x)
        if per == 1:
            continue
        word = morphism.shortest_preimage(x)
        trans = elements[x]
        for q in range(dfa.n):
            orbit = [q]
            cur = trans[q]
            while cur != q and len(orbit) <= dfa.n:
                orbit.append(cur)
                cur = trans[cur]
            if cur == q and len(orbit) >= 2:
                return False, CounterWitness(q, word, len(orbit))
    raise AssertionError("non-aperiodic monoid without a counter")


# ---------------------------------------------------------------------------
# star-freeness


@dataclass
class StarFreeVerdict:
    star_free: bool
    reason: str
    witness: object = None
    trace: list = field(default_factory=list)


def star_free(f: Cplc, budget: SearchBudget | None = None) -> StarFreeVerdict:
    """Decide star-freeness by induction on the growth degree, in one
    analysis of f (module docstring)."""
    return _star_free(f, analysis.Analysis.of(f, budget))


def _star_free(f: Cplc, an: analysis.Analysis) -> StarFreeVerdict:
    """star_free of f, the series of `an.rep`."""
    verdict = analysis.growth_degree(f, rep=an)
    k = verdict.degree
    if verdict.budget_exhausted:
        raise UncertainConstruction(
            "growth degree undecided within budget" if k <= 0 else
            "growth degree only bounded from below (%d) within budget" % k)
    # at degree <= 0 the machine is f's minimal automaton with integer
    # outputs: only equal vectors merge, so every label is zero
    machine, vectors = _machine(f, max(k, 0), an)
    ok, counter = counter_free(machine)
    trace = [{"degree": k, "states": machine.n_states}]
    if not ok:
        return StarFreeVerdict(False, "minimal automaton has a counter" if k <= 0 else
                               "%d-residual transducer has a counter" % k,
                               witness=counter, trace=trace)
    for q, a in sorted(machine.labels, key=lambda kv: (kv[0], str(kv[1]))):
        label = machine.labels[q, a]
        if k <= 0 or not label.terms:
            continue
        v = an.rep.mats[a].vecmat(vectors[q])
        dv = [x - y for x, y in zip(v, vectors[machine.delta[q, a]])]
        sub = _star_free(label, an.at(dv))
        trace.extend(sub.trace)
        if not sub.star_free:
            return StarFreeVerdict(
                False, "transition label (%d, %r) is not star-free: %s"
                % (q, a, sub.reason), witness=sub.witness, trace=trace)
    return StarFreeVerdict(True, "aperiodic minimal automaton" if k <= 0 else
                           "counter-free transducer with star-free labels", trace=trace)
