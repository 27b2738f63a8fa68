"""Differential tests of the residual-transducer kernel.

The machine oracle below is the original path: every merge test calls
equiv_mod_k on the two residual Cauchy combinations, which subtracts them,
compiles the difference to a fresh linear representation and minimizes it.
The library minimizes f once and decides each merge on the difference of
the row vectors I mu(u) of the two residuals in that one representation: a
zero difference is a merge, and at level k >= 1 a nonzero one goes to
equiv_mod_k with the difference vector as its representation.  Both must
build the same machines and raise the same exceptions.

The star-freeness oracle decides each transition label in a fresh
analysis of the label, minimized on its own, with machines from the
per-merge oracle.  The library decides a whole question in one analysis
of f, each label at its row vector v_q mu(a) - v_delta(q,a) in f's
representation; both must reach the same verdicts, reasons, witnesses
and traces.

The library's searches also read f's product monoid and patterns instead
of each difference's or label's; the property below checks the argument
that makes this sound (the `canon` docstring), and the counter tests
check that one question builds one analysis.
"""

import os
import random
import sys
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _wa_times_wb, count_a, signed_length, twelve_term_function, words_up_to
from zpoly import analysis, series
from zpoly.analysis import BudgetExhausted, SearchBudget, equiv_mod_k, growth_degree
from zpoly.canon import (ResidualTransducer, StarFreeVerdict, StateBudgetExceeded,
                         UncertainConstruction, counter_free, residual_transducer, star_free)
from zpoly.cplc import Cplc, indicator_cplc, product_monoid
from zpoly.lang import Alphabet, MonoidTooLarge, compile_regex

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


def oracle_star_free(f, budget=None):
    """The induction on the growth degree with nothing shared: each
    function, f and every nonzero transition label, gets a growth search
    in a fresh analysis of its own and a machine from the per-merge oracle."""
    verdict = growth_degree(f, budget)
    k = verdict.degree
    if k <= 0 and verdict.budget_exhausted:
        raise UncertainConstruction("growth degree undecided within budget")
    if k <= 0:
        machine = oracle_residual_transducer(f, 0, budget)
        ok, counter = counter_free(machine)
        trace = [{"degree": k, "states": machine.n_states}]
        if ok:
            return StarFreeVerdict(True, "aperiodic minimal automaton", trace=trace)
        return StarFreeVerdict(False, "minimal automaton has a counter",
                               witness=counter, trace=trace)
    if verdict.budget_exhausted:
        raise UncertainConstruction(
            "growth degree only bounded from below (%d) within budget" % k)
    machine = oracle_residual_transducer(f, k, budget)
    ok, counter = counter_free(machine)
    trace = [{"degree": k, "states": machine.n_states}]
    if not ok:
        return StarFreeVerdict(False, "%d-residual transducer has a counter" % k,
                               witness=counter, trace=trace)
    for key in sorted(machine.labels, key=lambda kv: (kv[0], str(kv[1]))):
        label = machine.labels[key]
        if not label.terms:
            continue
        sub = oracle_star_free(label, budget)
        trace.extend(sub.trace)
        if not sub.star_free:
            return StarFreeVerdict(
                False, "transition label (%d, %r) is not star-free: %s"
                % (key[0], key[1], sub.reason),
                witness=sub.witness, trace=trace)
    return StarFreeVerdict(True, "counter-free transducer with star-free labels",
                           trace=trace)


# ---------------------------------------------------------------------------
# comparison


def outcome(build, *args, **kwargs):
    """A machine's observable parts, or the type and message it raised."""
    try:
        t = build(*args, **kwargs)
    except (UncertainConstruction, StateBudgetExceeded) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("machine", t.state_words, t.delta, t.outputs, t.to_json())


def star_free_outcome(decide, f):
    try:
        v = decide(f)
    except (UncertainConstruction, StateBudgetExceeded) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("verdict", v.star_free, v.reason, repr(v.witness), v.trace)


def assert_same(f, levels, max_states):
    for k in levels:
        new = outcome(residual_transducer, f, k, max_states=max_states)
        old = outcome(oracle_residual_transducer, f, k, max_states=max_states)
        assert new == old, "level %d" % k
    assert star_free_outcome(star_free, f) == star_free_outcome(oracle_star_free, f)


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
            ("zero", Cplc(AB, [])),
            # degree 0, with a label that is zero but not syntactically:
            # f|b = ind(a) + ind(b) merges with f|a = ind(a|b)
            ("zero_label", ind("a(a|b)").add(ind("ba")).add(ind("bb")))]


@pytest.mark.parametrize("name,f", fixtures(), ids=[n for n, _ in fixtures()])
def test_fixtures_every_level(name, f):
    # below its level a function of level 2 has infinitely many classes:
    # 8 states is enough to compare the merges that lead up to the budget
    assert_same(f, range(f.level + 1), 8)


def test_twelve_term_function():
    assert_same(twelve_term_function(), (0, 1), 6)


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
def test_residual_workload_shapes(name, f):
    assert_same(f, (f.level,), 64)


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
def test_random_combinations(index):
    f = random_functions(7, 6)[index]
    assert_same(f, range(f.level + 1), 8)


# ---------------------------------------------------------------------------
# one analysis per question


def pool_terms(max_factors):
    """Hypothesis terms for `combination`: 1-3 terms of 2..max_factors
    factors drawn from the benchmark's pool, so of level 1 up to
    max_factors - 1."""
    factors = st.lists(st.sampled_from(workloads.POOL), min_size=2, max_size=max_factors)
    return st.lists(st.tuples(st.sampled_from([-2, -1, 1, 2]), factors.map(tuple)),
                    min_size=1, max_size=3)


SHORT = st.lists(st.sampled_from("ab"), max_size=2).map(tuple)


@settings(max_examples=40, deadline=None)
@given(pool_terms(3), SHORT, st.sampled_from("ab"), SHORT)
def test_difference_monoid_is_a_quotient_of_f(terms, u, a, v):
    """Words with one image under f's product morphism have one image
    under the morphism of h = f|ua - f|v."""
    f = combination(terms)
    h = f.residual(u + (a,)).sub(f.residual(v))
    _, f_morphism = product_monoid(f)
    _, h_morphism = product_monoid(h)
    h_of_f = {}
    for w in words_up_to("ab", 6):
        x = h_morphism.image(w)
        assert h_of_f.setdefault(f_morphism.image(w), x) == x, w


def counted_calls(monkeypatch):
    """Calls of series.minimize and of product_monoid from now on."""
    calls = Counter()

    def charge(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(series, "minimize", charge("minimize", series.minimize))
    monkeypatch.setattr(analysis, "product_monoid",
                        charge("product_monoid", analysis.product_monoid))
    return calls


COUNTED = fixtures() + workload_functions()


@pytest.mark.parametrize("name,f", COUNTED, ids=[n for n, _ in COUNTED])
def test_one_question_minimizes_once_and_builds_one_monoid(name, f, monkeypatch):
    """A question, residual_transducer(f, k) or star_free(f) with every
    transition label it recurses into, minimizes f once and builds at most
    f's product monoid."""
    calls = counted_calls(monkeypatch)
    for k in range(f.level + 1):
        calls.clear()
        outcome(residual_transducer, f, k, max_states=8)
        assert calls["minimize"] == 1
        assert calls["product_monoid"] <= (1 if k else 0)
    calls.clear()
    try:
        star_free(f)
    except (UncertainConstruction, StateBudgetExceeded):
        pass
    assert calls["minimize"] == 1 and calls["product_monoid"] <= 1


def test_monoid_cap_applies_to_f_not_to_its_differences():
    """The merge searches read f's product monoid, so `monoid_cap` must hold
    f's monoid (10 elements here), even where every difference's monoid
    (at most 9) fits, as in the per-merge oracle."""
    f = combination(((1, ("a*", "a*")), (-2, ("(a|b)*b", "(ab)*"))))
    assert product_monoid(f)[0].size == 10
    budget = SearchBudget(monoid_cap=9)
    expected = outcome(oracle_residual_transducer, f, 1)
    assert expected[0] == "machine"
    assert outcome(oracle_residual_transducer, f, 1, budget) == expected
    with pytest.raises(MonoidTooLarge, match="cap 9"):
        residual_transducer(f, 1, budget)
    assert outcome(residual_transducer, f, 1, SearchBudget(monoid_cap=10)) == expected


@settings(max_examples=30, deadline=None, derandomize=True)
@given(pool_terms(2))
def test_random_machines_evaluate_like_f_and_star_free_agrees(terms):
    """Level-1 draws: below its level a level-2 draw can spend a minute on
    merges that all end undecided, so those are left to the fixed corpus."""
    f = combination(terms)
    words = words_up_to("ab", 6)
    for k in range(f.level + 1):
        try:
            machine = residual_transducer(f, k, max_states=8)
        except (UncertainConstruction, StateBudgetExceeded):
            continue
        assert [machine.eval(w) for w in words] == [f.eval(w) for w in words]
    assert star_free_outcome(star_free, f) == star_free_outcome(oracle_star_free, f)
