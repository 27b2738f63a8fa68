"""Growth analysis: pattern polynomials, growth degree, equivalence modulo
polynomial growth, and ultimate-polynomial diagnostics.

The growth degree of a function given as a level-k Cauchy combination is
found from below by evaluating the function on pumping families
alpha_0 w_1^{X_1} ... w_k^{X_k} alpha_k and fitting the resulting
polynomials exactly: the family is stepped through a grid of exponents in
the minimal representation (integer arithmetic where it is integral), and
its Newton forward differences give the polynomial and its total degree.
The syntactic level is an upper bound on the degree, so a witness of
degree equal to the level settles the question; otherwise the verdict
carries a budget_exhausted flag.

For each number of pumps, from the level down, the search reads one lazy
stream of patterns: the grid of short pump words and connectors, then the
patterns harvested from factorization forests of sample words, so a forest
is built only when the search reaches its word.  Pumps are raised to the
idempotent power omega of the product monoid (computed once per monoid),
and a pattern seen before is skipped.  `SearchBudget.max_patterns` caps
the patterns a budgeted search reads, over all pump counts together.
Certified mode reads instead the grid of pump words and connectors up to a
completeness bound derived from the factorization-forest depth; it is
feasible only for tiny monoids.

An `Analysis` of f holds what every search about f reads: its minimal
representation (I, mu, F), its product monoid (built on first use), one
memoized pattern stream per pump count and one table of matrix powers of
mu and of fits.  A fit is keyed on the matrices of its family, not on the
words (see `_Family`), so each distinct family is fitted once per question.
An analysis lives for one question, such as `canon.residual_transducer(f,
k)`, whose merges each search a difference h of two residuals of f, at the
row vector of h in f's representation (`Analysis.at`).  Those searches read
f's monoid and patterns instead of h's: every factor DFA of h is a factor
of f or a residual of one, so h's product monoid is a quotient of f's
(the argument is in the `canon` docstring).  An f-idempotent pump is
therefore h-idempotent, and a forest under f's morphism is also a forest
under h's.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass

from . import forests, series
from .cplc import Cplc, PumpingPattern, product_monoid
from .exact import MPoly, newton_coefficients, newton_degree, newton_to_mpoly, newton_values


class BudgetExhausted(RuntimeError):
    """An equivalence question could not be settled within the budget."""


class CertifiedInfeasible(RuntimeError):
    """The certified enumeration exceeds the configured hard cap."""


class PatternVerificationError(RuntimeError):
    """Interpolation failed to stabilize (the family is not ultimately
    polynomial at the probed offsets)."""


@dataclass
class SearchBudget:
    pump_len: int = 2          # max pump word length in the exhaustive source
    connector_len: int = 1     # max connector word length
    sample_len: int = 6        # sample words for forest extraction
    max_samples: int = 200
    tuple_cap: int = 100       # forest tuples kept per sample word
    max_patterns: int = 20000
    certified_cap: int = 200000
    monoid_cap: int = 100000
    seed: int = 0


@dataclass
class GrowthVerdict:
    degree: int
    mode: str
    budget_exhausted: bool
    witness: PumpingPattern | None = None
    witness_poly: MPoly | None = None
    patterns_tried: int = 0


# ---------------------------------------------------------------------------
# pattern polynomials


class _Family:
    """Values of one representation on pumping families, exact and in
    Python ints wherever the representation's entries are integral.

    `powers` is the table of one question.  It maps (word, exponent) to the
    pair (mu(word)^exponent, its transpose), a row vector stepping as
    transpose.matvec, and it keeps every fit.  A fit is a function of the
    family's matrices, not of its words: of I mu(alpha_0), of
    mu(alpha_l) F, and of the pumps mu(w_i) and inner connectors
    mu(alpha_i).  So `fit` keys it on k, scale, I mu(alpha_0) and the ids
    (`ident`) of the others, and a fit read back is the very fit that would
    be computed: same x0, same coefficients.  Through `Analysis.at` the
    table serves every row vector of the representation, so each distinct
    family is powered and fitted once per question.
    """

    def __init__(self, rep: series.LinRep, powers: dict | None = None):
        self.rep = rep
        self.powers = {} if powers is None else powers

    def matrix(self, word, e: int = 1):
        key = (word, e)
        if key not in self.powers:
            if e == 1:
                m = self.rep.word_matrix(word)
            else:
                m = self.matrix(word)[0].power(e)
            self.powers[key] = (m, m.transpose())
        return self.powers[key]

    def ident(self, word, last=False):
        """An id of mu(word), or of mu(word) F if `last`: the first word seen
        with an equal value, so that a key hashes words, not d^2 entries."""
        key = ("id", last, word)
        if key not in self.powers:
            m = self.matrix(word)[0]
            value = m.matvec(self.rep.F) if last else m.rows
            self.powers[key] = self.powers.setdefault(("value", last, value), word)
        return self.powers[key]

    def grid_values(self, pattern: PumpingPattern, start: int, d: int, scale: int):
        """f(alpha_0 w_1^{scale x_1} ... w_l^{scale x_l} alpha_l) for x in
        {start .. start+d}^l, row-major.

        Each pump is entered at v mu(w)^{scale start} and stepped by one
        product with mu(w)^scale; the last pump and connector are folded
        into F, one column per exponent, so a grid point costs one dot
        product.
        """
        pumps, alphas = pattern.pumps, pattern.alphas
        ell = len(pumps)
        u = self.rep.I
        if alphas[0]:
            u = self.matrix(alphas[0])[1].matvec(u)
        if ell == 0:
            return [sum(map(operator.mul, u, self.rep.F))]
        g = self.rep.F
        if alphas[-1]:
            g = self.matrix(alphas[-1])[0].matvec(g)
        g = self.matrix(pumps[-1], scale * start)[0].matvec(g)
        last_step = self.matrix(pumps[-1], scale)[0]
        columns = [g]
        for _ in range(d):
            columns.append(last_step.matvec(columns[-1]))
        out = []

        def walk(j, u):
            if j == ell - 1:
                out.extend(sum(map(operator.mul, u, g)) for g in columns)
                return
            u = self.matrix(pumps[j], scale * start)[1].matvec(u)
            step = self.matrix(pumps[j], scale)[1]
            alpha = alphas[j + 1]
            connector = self.matrix(alpha)[1] if alpha else None
            for t in range(d + 1):
                if t:
                    u = step.matvec(u)
                walk(j + 1, connector.matvec(u) if alpha else u)

        walk(0, u)
        del walk   # it refers to itself: free its cycle (and the family) now, not at a full gc
        return out

    def fit(self, pattern: PumpingPattern, k: int, scale: int = 1):
        """(x0, Newton coefficients) of the family on {x0 .. x0+k}^l.

        x0 starts at 2(k+1); the fit is checked on the disjoint shifted grid
        {x0+k+1 .. x0+2k+1}^l, and x0 is doubled once on failure.  A fit is
        kept in `powers` under its family's key; a failure is not.
        """
        u = self.rep.I
        if pattern.alphas[0]:
            u = self.matrix(pattern.alphas[0])[1].matvec(u)
        key = (k, scale, u, self.ident(pattern.alphas[-1], True),
               *map(self.ident, (*pattern.pumps, *pattern.alphas[1:-1])))
        if key in self.powers:
            return self.powers[key]
        ell = pattern.size
        x0 = 2 * (k + 1)
        for _attempt in range(2):
            coeffs = newton_coefficients(self.grid_values(pattern, x0, k, scale), ell, k)
            if (newton_values(coeffs, ell, k, range(k + 1, 2 * k + 2))
                    == self.grid_values(pattern, x0 + k + 1, k, scale)):
                self.powers[key] = x0, coeffs
                return x0, coeffs
            x0 *= 2
        raise PatternVerificationError(
            "family %r did not stabilize to a polynomial" % (pattern,))

    def polynomial(self, pattern: PumpingPattern, k: int, scale: int = 1) -> MPoly:
        x0, coeffs = self.fit(pattern, k, scale)
        return newton_to_mpoly(coeffs, pattern.size, k, x0)


def pattern_polynomial(f: Cplc, pattern: PumpingPattern, rep=None) -> MPoly:
    """The exact polynomial giving f on the pumping family for all large
    exponents.

    Fits Newton forward differences on the grid {x0 .. x0+k}^l with
    x0 = 2(k+1) (k the level of f) and verifies on a disjoint shifted grid,
    doubling x0 once on failure.
    """
    if rep is None:
        rep = series.minimize(f.to_linrep())
    return _Family(rep).polynomial(pattern, f.level)


def normalize_pattern(f: Cplc, pattern: PumpingPattern,
                      morphism=None) -> PumpingPattern:
    """Replace each pump word by an idempotent power (w -> w^omega) under
    the product monoid of f; already-idempotent pumps are kept."""
    if morphism is None:
        _, morphism = product_monoid(f)
    m = morphism.monoid
    _, omega = m.aperiodicity
    pumps = []
    for w in pattern.pumps:
        if not w:
            raise ValueError("empty pump word")
        x = morphism.image(w)
        pumps.append(w if m.is_idempotent(x) else w * omega)
    return PumpingPattern(pattern.alphas, tuple(pumps))


# ---------------------------------------------------------------------------
# pattern sources


def _words_up_to(letters, max_len, include_empty):
    out = [()] if include_empty else []
    for k in range(1, max_len + 1):
        out.extend(itertools.product(letters, repeat=k))
    return out


def _sample_words(alphabet, budget: SearchBudget):
    letters = list(alphabet.letters)
    words = []
    total = sum(len(letters) ** k for k in range(1, budget.sample_len + 1))
    if total <= budget.max_samples:
        words.extend(_words_up_to(letters, budget.sample_len, include_empty=False))
    else:
        rng = random.Random(budget.seed)
        for _ in range(budget.max_samples):
            k = rng.randint(1, budget.sample_len)
            words.append(tuple(rng.choice(letters) for _ in range(k)))
    words += [(a,) * 8 for a in letters]
    words += [(a, b) * 4 for a in letters for b in letters if a != b]
    return sorted(set(words))


def _grid(pumps, connectors, size):
    """The patterns alpha_0 w_1 ... w_size alpha_size with pump words w_i
    and connectors alpha_i, pumps varying slowest."""
    return (PumpingPattern(alpha_combo, pump_combo)
            for pump_combo in itertools.product(pumps, repeat=size)
            for alpha_combo in itertools.product(connectors, repeat=size + 1))


def _exhaustive_patterns(alphabet, size, budget: SearchBudget):
    letters = list(alphabet.letters)
    return _grid(_words_up_to(letters, budget.pump_len, include_empty=False),
                 _words_up_to(letters, budget.connector_len, include_empty=True),
                 size)


def _certified_patterns(f: Cplc, size, morphism, budget: SearchBudget):
    """Complete pattern source for certified mode.

    `forests.simon_forest` proves depth <= 3|M| for every word (module
    docstring there); with d = 3|M| + ceil(log2(2k+3)) + 1 the pump words
    are a superset of the depth-<=d skeleton yields (all words up to length
    2^(d-1) with idempotent image), and connectors are shortest preimages
    of all monoid elements."""
    m = morphism.monoid
    d = 3 * m.size + math.ceil(math.log2(2 * f.level + 3)) + 1
    max_pump = 2 ** (d - 1)
    letters = list(f.alphabet.letters)
    n_words = 0
    for j in range(1, max_pump + 1):
        n_words += len(letters) ** j
        if n_words > budget.certified_cap:
            raise CertifiedInfeasible(
                "certified enumeration needs more than %d pump candidates "
                "(cap %d)" % (budget.certified_cap, budget.certified_cap))
    pumps = [w for w in _words_up_to(letters, max_pump, include_empty=False)
             if m.is_idempotent(morphism.image(w))]
    preimages = (morphism.shortest_preimage(x) for x in range(m.size))
    connectors = sorted({w for w in preimages if w is not None})
    return _grid(pumps, connectors, size)


# ---------------------------------------------------------------------------
# the analysis of one question


def _distinct_normalized(f: Cplc, patterns, morphism):
    seen = set()
    for pattern in patterns:
        norm = normalize_pattern(f, pattern, morphism)
        if norm not in seen:
            seen.add(norm)
            yield norm


class _Patterns:
    """The normalized patterns of f, one memoized stream per pump count.

    A stream reads the grid, then the forest harvest, and keeps every
    distinct pattern it has produced, so a later search replays them before
    it reads further.  The product monoid of f is built on first use."""

    def __init__(self, f: Cplc, budget: SearchBudget):
        self.f = f
        self.budget = budget
        self.streams = {}    # pump count -> (patterns read so far, their source)

    @functools.cached_property
    def morphism(self):
        return product_monoid(self.f, cap=self.budget.monoid_cap)[1]

    def stream(self, size: int):
        if size not in self.streams:
            f, budget = self.f, self.budget
            source = itertools.chain(
                _exhaustive_patterns(f.alphabet, size, budget),
                forests.extract_patterns(f, _sample_words(f.alphabet, budget), size,
                                         cap=budget.tuple_cap, seed=budget.seed,
                                         morphism=self.morphism))
            self.streams[size] = ([], _distinct_normalized(f, source, self.morphism))
        read, source = self.streams[size]
        for i in itertools.count():
            if i == len(read):
                pattern = next(source, None)
                if pattern is None:
                    return
                read.append(pattern)
            yield read[i]


@dataclass(frozen=True)
class Analysis:
    """What the growth searches of one question read about f, as the module
    docstring describes: `family` evaluates a minimal representation of f
    (or, after `at`, of a row vector in it) and `patterns` streams f's
    patterns under f's budget.  The analysis keeps every pattern, matrix
    power and fit read so far: drop it with its question."""

    family: _Family
    patterns: _Patterns

    @classmethod
    def of(cls, f: Cplc, budget: SearchBudget | None = None) -> "Analysis":
        return cls(_Family(series.minimize(f.to_linrep())),
                   _Patterns(f, budget or SearchBudget()))

    @property
    def rep(self) -> series.LinRep:
        return self.family.rep

    @property
    def budget(self) -> SearchBudget:
        return self.patterns.budget

    def at(self, I) -> "Analysis":
        """The analysis of the series of row vector I in f's representation;
        it shares f's patterns (and monoid) and f's table of powers and fits."""
        rep = self.rep
        return Analysis(_Family(series.LinRep(rep.alphabet, I, rep.mats, rep.F),
                                self.family.powers),
                        self.patterns)


def analysis_for(f: Cplc, budget: SearchBudget | None, an: Analysis | None) -> Analysis:
    """`an`, or a new Analysis of f under `budget` when `an` is None.  A
    budget given beside an analysis must be the analysis's own."""
    if an is None:
        return Analysis.of(f, budget)
    if budget is not None and budget != an.budget:
        raise ValueError("budget %r differs from the analysis's %r" % (budget, an.budget))
    return an


# ---------------------------------------------------------------------------
# growth degree


def growth_degree(f: Cplc, budget: SearchBudget | None = None,
                  mode: str = "budgeted", rep: Analysis | None = None) -> GrowthVerdict:
    """The polynomial growth degree of f, searched from below.

    -1 means the zero function (decided exactly); a verdict of k with
    budget_exhausted False is definitive because the syntactic level bounds
    the degree from above.  `rep` is an Analysis of f (default:
    `Analysis.of(f, budget)`); the search runs under its budget, and a
    different `budget` beside it is an error.  Patterns are read lazily, as
    the module docstring describes.
    """
    if mode not in ("budgeted", "certified"):
        raise ValueError("unknown mode %r" % mode)
    an = analysis_for(f, budget, rep)
    budget = an.budget
    if not any(an.rep.I):
        return GrowthVerdict(-1, mode, False)
    k_max = f.level
    if k_max == 0:
        return GrowthVerdict(0, mode, False)

    if mode == "certified":
        morphism = an.patterns.morphism
        patterns = itertools.chain.from_iterable(
            _distinct_normalized(f, _certified_patterns(f, size, morphism, budget), morphism)
            for size in range(k_max, 0, -1))
    else:
        patterns = itertools.islice(
            itertools.chain.from_iterable(an.patterns.stream(size)
                                          for size in range(k_max, 0, -1)),
            budget.max_patterns)
    best_degree = 0
    witness = None
    witness_poly = None
    tried = 0
    for norm in patterns:
        tried += 1
        x0, coeffs = an.family.fit(norm, k_max)
        deg = newton_degree(coeffs, norm.size, k_max)
        if deg > k_max:
            raise AssertionError(
                "pattern degree %d exceeds the syntactic level %d" % (deg, k_max))
        if deg > best_degree:
            best_degree = deg
            witness = norm
            witness_poly = newton_to_mpoly(coeffs, norm.size, k_max, x0)
        if best_degree == k_max:
            return GrowthVerdict(best_degree, mode, False, witness,
                                 witness_poly, tried)
    exhausted = (mode == "budgeted" and best_degree < k_max)
    return GrowthVerdict(best_degree, mode, exhausted, witness,
                         witness_poly, tried)


# ---------------------------------------------------------------------------
# equivalence modulo growth


def equiv_mod_k(f: Cplc, g: Cplc, k: int,
                budget: SearchBudget | None = None,
                mode: str = "budgeted", rep: Analysis | None = None) -> bool:
    """Whether f - g has growth degree at most k (k = -1 means equality).

    `rep` is an Analysis of f - g, as growth_degree takes it.  Raises
    BudgetExhausted when the budgeted search can neither produce a witness
    of higher growth nor certify the bound.
    """
    h = f.sub(g)
    if h.is_zero_syntactic():
        return True
    if k < 0:
        return series.minimize(h.to_linrep() if rep is None else rep.rep).dim == 0
    if h.level <= k:
        return True
    verdict = growth_degree(h, budget, mode, rep)
    if verdict.degree > k:
        return False
    if verdict.degree == -1 or not verdict.budget_exhausted:
        return True
    raise BudgetExhausted(
        "cannot certify growth degree <= %d (best witness %d, level %d)"
        % (k, verdict.degree, h.level))


# ---------------------------------------------------------------------------
# ultimate polynomial diagnostics


@dataclass
class UltimatePolyReport:
    pattern: PumpingPattern
    step: int
    is_polynomial: bool
    poly: MPoly | None = None


def ultimate_poly_check(f: Cplc, patterns, step: int = 1, rep=None):
    """For each pattern, test whether X |-> f(... w_i^{step * X_i} ...) is
    ultimately polynomial, without normalizing the pump words.

    With step 1 this can fail on functions that are only polynomial along
    idempotent subsequences (the classical (-1)^n n example); a suitable
    step restores polynomiality."""
    if rep is None:
        rep = series.minimize(f.to_linrep())
    family = _Family(rep)
    out = []
    for pattern in patterns:
        try:
            poly = family.polynomial(pattern, f.level, step)
            out.append(UltimatePolyReport(pattern, step, True, poly))
        except PatternVerificationError:
            out.append(UltimatePolyReport(pattern, step, False, None))
    return out
