"""Differential tests of the residual-transducer kernel.

The oracle below is the original path: every merge test calls equiv_mod_k
on the two residual Cauchy combinations, which subtracts them, compiles
the difference to a fresh linear representation and minimizes it.  The
library minimizes f once and decides each merge on the difference of the
row vectors I mu(u) of the two residuals in that one representation: a
zero difference is a merge, and at level k >= 1 a nonzero one goes to
equiv_mod_k with the difference vector as its representation.  Both must
build the same machines, raise the same exceptions and reach the same
star-freeness verdicts.
"""

import functools
import os
import random
import sys
from collections import deque

import pytest

from conftest import _wa_times_wb, count_a, signed_length, twelve_term_function
from zpoly import canon
from zpoly.analysis import BudgetExhausted, SearchBudget, equiv_mod_k
from zpoly.canon import (ResidualTransducer, StateBudgetExceeded, UncertainConstruction,
                         residual_transducer, star_free)
from zpoly.cplc import Cplc, indicator_cplc
from zpoly.lang import Alphabet, compile_regex

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import workloads  # noqa: E402  (the benchmark's residual shapes)

AB = Alphabet(["a", "b"])

# ---------------------------------------------------------------------------
# the oracle


def oracle_residual_transducer(f, k, budget=None, max_states=64):
    budget = budget or SearchBudget()
    state_words = [()]
    residuals = [f]
    delta = {}
    labels = {}
    queue = deque([0])
    while queue:
        q = queue.popleft()
        for a in f.alphabet:
            g = residuals[q].residual((a,))
            target = None
            for j, h in enumerate(residuals):
                try:
                    if equiv_mod_k(g, h, k - 1, budget):
                        target = j
                        break
                except BudgetExhausted as exc:
                    raise UncertainConstruction(str(exc)) from exc
            if target is None:
                if len(residuals) >= max_states:
                    raise StateBudgetExceeded(
                        "more than %d residual classes at level %d"
                        % (max_states, k))
                target = len(residuals)
                state_words.append(state_words[q] + (a,))
                residuals.append(g)
                queue.append(target)
            delta[(q, a)] = target
            labels[(q, a)] = g.sub(residuals[target])
    outputs = [r.eval_at_epsilon() for r in residuals]
    return ResidualTransducer(f.alphabet, k, state_words, delta, labels, outputs)


# ---------------------------------------------------------------------------
# comparison


def outcome(build, *args, **kwargs):
    """A machine's observable parts, or the type and message it raised."""
    try:
        t = build(*args, **kwargs)
    except (UncertainConstruction, StateBudgetExceeded) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("machine", t.state_words, t.delta, t.outputs, t.to_json())


def star_free_outcome(f):
    try:
        v = star_free(f)
    except (UncertainConstruction, StateBudgetExceeded, RecursionError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("verdict", v.star_free, v.reason, repr(v.witness), v.trace)


def assert_same(f, levels, max_states, monkeypatch):
    for k in levels:
        new = outcome(residual_transducer, f, k, max_states=max_states)
        old = outcome(oracle_residual_transducer, f, k, max_states=max_states)
        assert new == old, "level %d" % k
    verdicts = []
    for build in (residual_transducer, oracle_residual_transducer):
        with monkeypatch.context() as m:
            m.setattr(canon, "residual_transducer",
                      functools.partial(build, max_states=max_states))
            verdicts.append(star_free_outcome(f))
    assert verdicts[0] == verdicts[1]


def ind(regex, alphabet=AB):
    return indicator_cplc(compile_regex(regex, alphabet))


def combination(terms, alphabet=AB):
    """sum of coef * ind(r0) . ind(r1) ... over (coef, regexes) terms."""
    total = Cplc(alphabet, [])
    for coef, regexes in terms:
        term = ind(regexes[0], alphabet)
        for r in regexes[1:]:
            term = term.cauchy(ind(r, alphabet))
        total = total.add(term.scale(coef))
    return total


# ---------------------------------------------------------------------------
# the corpus


def fixtures():
    a1 = Alphabet(["a"])
    itimesj = combination(((1, ("a*a", "a*b*b", "b*")),))
    return [("signed", signed_length(a1)), ("wa", count_a(AB)),
            ("product_counts", _wa_times_wb(AB)), ("itimesj", itimesj),
            ("a_astar", ind("a(a|b)*")), ("even", ind("(aa)*", a1)),
            ("zero", Cplc(AB, []))]


@pytest.mark.parametrize("name,f", fixtures(), ids=[n for n, _ in fixtures()])
def test_fixtures_every_level(name, f, monkeypatch):
    # below its level a function of level 2 has infinitely many classes:
    # 8 states is enough to compare the merges that lead up to the budget
    assert_same(f, range(f.level + 1), 8, monkeypatch)


def test_twelve_term_function(monkeypatch):
    assert_same(twelve_term_function(), (0, 1), 6, monkeypatch)


def workload_functions():
    out = []
    for i, shape in enumerate(workloads.RESIDUAL_SHAPES):
        out.append(("pair%d" % i, combination(shape)))
    for i, (regex, _) in enumerate(workloads.INDICATORS):
        out.append(("indicator%d" % i, ind(regex)))
    for name, shape in (("i_times_j", workloads.I_TIMES_J),
                        ("wa_times_wb", workloads.WA_TIMES_WB)):
        out.append((name, combination(shape)))
    return out


@pytest.mark.parametrize("name,f", workload_functions(),
                         ids=[n for n, _ in workload_functions()])
def test_residual_workload_shapes(name, f, monkeypatch):
    assert_same(f, (f.level,), 64, monkeypatch)


def random_functions(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        terms = [(rng.choice([-2, -1, 1, 2]),
                  tuple(rng.choice(workloads.POOL) for _ in range(rng.randint(1, 2))))
                 for _ in range(rng.randint(1, 3))]
        out.append(combination(terms))
    return out


@pytest.mark.parametrize("index", range(6))
def test_random_combinations(index, monkeypatch):
    f = random_functions(7, 6)[index]
    assert_same(f, range(f.level + 1), 8, monkeypatch)
