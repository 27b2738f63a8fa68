"""Growth analysis: pattern polynomials, growth degree, equivalence modulo
polynomial growth, and ultimate-polynomial diagnostics.

The growth degree of a level-k Cauchy combination f is found from below on
pumping families alpha_0 w_1^{X_1} ... w_l^{X_l} alpha_l, fitted exactly:
once each pump's matrix is shown to be a matrix polynomial in its
exponent from x0 on, the family's values on the simplex x0 + {|t| <= k}
give its Newton forward differences (`_Family.fit`).  The level bounds the
degree, so a witness of degree k settles the question; otherwise the
verdict carries a budget_exhausted flag.

For each number of pumps, from the level down, the search reads its own
lazy stream of patterns: the grid of short pump words and connectors, then
the patterns harvested from factorization forests of sample words, so a
forest is built only when a search reaches its word.  Pumps are raised to
the idempotent power omega of the product monoid, and a pattern seen before
is skipped.  `SearchBudget.max_patterns` caps the patterns a search reads,
over all pump counts.

An `Analysis` of f holds what every search about f reads: its minimal
representation (I, mu, F), its product monoid, each pump word's omega,
what the harvest reads of each sample word's forest, and one table of
matrix powers and fits, each fit keyed on its family's matrices (see
`_Family`).  An analysis lives for one question,
`canon.residual_transducer(f, k)` or `canon.star_free(f)`, whose searches
run at row vectors of f's representation (`Analysis.at`): the difference
of two residuals at a merge, or a transition label, each an integer
combination h of residuals of f.  Those searches read f's monoid and
patterns instead of h's: every factor DFA of h is a factor of f or a
residual of one, so h's product monoid is a quotient of f's (see the
`canon` docstring).  An f-idempotent pump is therefore h-idempotent, and
a forest under f's morphism is also a forest under h's.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass

from . import forests, series
from .cplc import Cplc, PumpingPattern, product_monoid
from .exact import MPoly, newton_coefficients, newton_degree, newton_to_mpoly


class BudgetExhausted(RuntimeError):
    """An equivalence question could not be settled within the budget."""


class PatternVerificationError(RuntimeError):
    """A pump of the family does not settle (`_Family.settles`): no fit is proved."""


@dataclass
class SearchBudget:
    pump_len: int = 2          # max pump word length in the exhaustive source
    connector_len: int = 1     # max connector word length
    sample_len: int = 6        # sample words for forest extraction
    max_samples: int = 200
    tuple_cap: int = 100       # forest tuples kept per sample word
    max_patterns: int = 20000
    monoid_cap: int = 100000
    seed: int = 0


@dataclass
class GrowthVerdict:
    degree: int
    budget_exhausted: bool
    witness: PumpingPattern | None = None
    witness_fit: tuple | None = None    # the witness's (coefficients, size, k, x0)
    patterns_tried: int = 0

    @functools.cached_property
    def witness_poly(self) -> MPoly | None:
        """The witness's polynomial, built from its fit when first read."""
        return self.witness_fit and newton_to_mpoly(*self.witness_fit)


# ---------------------------------------------------------------------------
# pattern polynomials


class _Family:
    """Values of one representation on pumping families, exact and in
    Python ints wherever the representation's entries are integral.

    `powers` is the table of one question: it maps (word, exponent) to
    (mu(word)^exponent, its transpose), a row vector stepping as
    transpose.matvec, and keeps every pump check and fit.  A fit depends on
    the family's matrices only, I mu(alpha_0), mu(alpha_l) F, the pumps and
    the inner connectors, so `fit` keys it on k, I mu(alpha_0) and the ids
    (`ident`) of the others: a fit read back is the fit that would be
    computed.  Through `Analysis.at` the table serves every row vector of
    the representation, so each distinct family is fitted once.
    """

    def __init__(self, rep: series.LinRep, powers: dict | None = None):
        self.rep = rep
        self.powers = {} if powers is None else powers

    def matrix(self, word, e: int = 1):
        key = (word, e)
        if key not in self.powers:
            m = self.rep.word_matrix(word) if e == 1 else self.matrix(word)[0].power(e)
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

    def grid_values(self, pattern: PumpingPattern, start: int, d: int):
        """f(alpha_0 w_1^{x_1} ... w_l^{x_l} alpha_l) at x = start + t for t
        in `exact.simplex_points(l, d)`, in that order.

        Each pump is entered at v mu(w)^start and stepped by one product
        with mu(w) while the budget d - t_1 - ... - t_j lasts;
        the last pump and connector are folded into F, one column per
        exponent, so a point costs one dot product.
        """
        pumps, alphas = pattern.pumps, pattern.alphas
        ell = len(pumps)
        u = self.matrix(alphas[0])[1].matvec(self.rep.I) if alphas[0] else self.rep.I
        if ell == 0:
            return [sum(map(operator.mul, u, self.rep.F))]
        g = self.matrix(alphas[-1])[0].matvec(self.rep.F) if alphas[-1] else self.rep.F
        g = self.matrix(pumps[-1], start)[0].matvec(g)
        last_step = self.matrix(pumps[-1])[0]
        columns = [g]
        for _ in range(d):
            columns.append(last_step.matvec(columns[-1]))
        out = []

        def walk(j, u, budget):
            if j == ell - 1:
                out.extend(sum(map(operator.mul, u, g)) for g in columns[:budget + 1])
                return
            u = self.matrix(pumps[j], start)[1].matvec(u)
            step = self.matrix(pumps[j])[1]
            alpha = alphas[j + 1]
            connector = self.matrix(alpha)[1] if alpha else None
            for t in range(budget + 1):
                if t:
                    u = step.matvec(u)
                walk(j + 1, connector.matvec(u) if alpha else u, budget - t)

        walk(0, u, d)
        del walk   # it refers to itself: free its cycle (and the family) now, not at a full gc
        return out

    def settles(self, pump, x0: int) -> bool:
        """Whether N^x0 (N - I)^e = 0 for an e <= dim, N = mu(pump), so that
        N^(x0 + t) = sum_{i < e} C(t, i) N^x0 (N - I)^i for all t >= 0.  It
        does for x0 >= dim when N has only the eigenvalues 0 and 1, and for
        x0 >= k + 1 when the pump is also idempotent in the product monoid
        of a level-k function (Jordan blocks of size at most k + 1)."""
        key = ("settles", self.ident(pump), x0)
        if key not in self.powers:
            n, p = self.matrix(pump)[0], self.matrix(pump, x0)[0]
            for _ in range(n.nrows):
                p = p if p.is_zero() else p * n - p
            self.powers[key] = p.is_zero()
        return self.powers[key]

    def fit(self, pattern: PumpingPattern, k: int):
        """(x0, Newton coefficients Delta^i at x0 for |i| <= k) of the family.

        When every pump settles at x0, the family is a polynomial on x >= x0,
        of total degree at most k if k bounds the growth of the series (as
        the level of f does), so the simplex x0 + {|t| <= k}, the only values
        read, fixes it.  x0 = 2(k+1) is tried, then max(4(k+1), dim) (see
        `settles`), then PatternVerificationError is raised."""
        alpha = pattern.alphas[0]
        u = self.matrix(alpha)[1].matvec(self.rep.I) if alpha else self.rep.I
        key = (k, u, self.ident(pattern.alphas[-1], True),
               *map(self.ident, (*pattern.pumps, *pattern.alphas[1:-1])))
        if key in self.powers:
            return self.powers[key]
        for x0 in (2 * (k + 1), max(4 * (k + 1), self.rep.dim)):
            if all(self.settles(w, x0) for w in pattern.pumps):
                values = self.grid_values(pattern, x0, k)
                self.powers[key] = x0, newton_coefficients(values, pattern.size, k)
                return self.powers[key]
        raise PatternVerificationError("a pump of %r does not settle" % (pattern,))

    def polynomial(self, pattern: PumpingPattern, k: int) -> MPoly:
        x0, coeffs = self.fit(pattern, k)
        return newton_to_mpoly(coeffs, pattern.size, k, x0)


def pattern_polynomial(f: Cplc, pattern: PumpingPattern, rep=None) -> MPoly:
    """The exact polynomial giving f on the pumping family for all
    exponents from x0 on, checked and fitted by `_Family.fit` at k the
    level of f."""
    if rep is None:
        rep = series.minimize(f.to_linrep())
    return _Family(rep).polynomial(pattern, f.level)


def normalize_pattern(f: Cplc, pattern: PumpingPattern,
                      morphism=None) -> PumpingPattern:
    """Replace each pump word by an idempotent power (w -> w^omega) under
    the product monoid of f; already-idempotent pumps are kept."""
    if morphism is None:
        _, morphism = product_monoid(f)
    return PumpingPattern(pattern.alphas,
                          tuple(_idempotent_power(morphism, w) for w in pattern.pumps))


def _idempotent_power(morphism, w):
    """w^omega under the morphism: w itself when its image is idempotent."""
    if not w:
        raise ValueError("empty pump word")
    m = morphism.monoid
    return w if m.is_idempotent(morphism.image(w)) else w * m.aperiodicity[1]


# ---------------------------------------------------------------------------
# pattern sources


def _words_up_to(letters, max_len, include_empty):
    out = [()] if include_empty else []
    for k in range(1, max_len + 1):
        out.extend(itertools.product(letters, repeat=k))
    return out


def _exhaustive_patterns(alphabet, size, budget: SearchBudget):
    """The patterns alpha_0 w_1 ... w_size alpha_size over the budget's pump
    words and connectors, pumps varying slowest."""
    letters = list(alphabet.letters)
    pumps = _words_up_to(letters, budget.pump_len, include_empty=False)
    connectors = _words_up_to(letters, budget.connector_len, include_empty=True)
    return (PumpingPattern(alpha_combo, pump_combo)
            for pump_combo in itertools.product(pumps, repeat=size)
            for alpha_combo in itertools.product(connectors, repeat=size + 1))


# ---------------------------------------------------------------------------
# the analysis of one question


class _Patterns:
    """The normalized patterns of f, streamed per pump count.

    Each search reads a stream of its own: the grid, then the forest
    harvest, with every pump w replaced by omega(w) and repeats skipped.
    The product monoid, the sample words, each pump's omega and what a
    harvest reads of each sample word's forest (`forests.extract_patterns`)
    are made once, on first use, and shared by every stream."""

    def __init__(self, f: Cplc, budget: SearchBudget):
        self.f = f
        self.budget = budget
        self.omegas = {}     # pump word -> its idempotent power
        self.forests = {}    # sample word -> what a harvest reads of its forest

    @functools.cached_property
    def morphism(self):
        return product_monoid(self.f, cap=self.budget.monoid_cap)[1]

    @functools.cached_property
    def sample_words(self):
        letters, budget = list(self.f.alphabet.letters), self.budget
        if sum(len(letters) ** k for k in range(1, budget.sample_len + 1)) <= budget.max_samples:
            words = _words_up_to(letters, budget.sample_len, include_empty=False)
        else:
            rng = random.Random(budget.seed)
            words = [tuple(rng.choice(letters) for _ in range(rng.randint(1, budget.sample_len)))
                     for _ in range(budget.max_samples)]
        words += [(a,) * 8 for a in letters]
        words += [(a, b) * 4 for a in letters for b in letters if a != b]
        return sorted(set(words))

    def omega(self, w):
        """w^omega under f's product monoid (`normalize_pattern`)."""
        if w not in self.omegas:
            self.omegas[w] = _idempotent_power(self.morphism, w)
        return self.omegas[w]

    def _harvest(self, size: int):
        """A generator: the sample words are made when a stream reaches it."""
        yield from forests.extract_patterns(self.f, self.sample_words, size,
                                            cap=self.budget.tuple_cap, seed=self.budget.seed,
                                            morphism=self.morphism, forests=self.forests)

    def stream(self, size: int):
        """The distinct normalized patterns with `size` pumps, read lazily."""
        seen = set()
        for pattern in itertools.chain(_exhaustive_patterns(self.f.alphabet, size, self.budget),
                                       self._harvest(size)):
            norm = PumpingPattern(pattern.alphas, tuple(map(self.omega, pattern.pumps)))
            if norm not in seen:
                seen.add(norm)
                yield norm


@dataclass(frozen=True)
class Analysis:
    """What the growth searches of one question read about f, as the module
    docstring describes: `family` evaluates a minimal representation of f
    (or, after `at`, of a row vector in it) and `patterns` streams f's
    patterns under f's budget.  The analysis keeps every normalization,
    forest, matrix power and fit read so far: drop it with its question."""

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


# ---------------------------------------------------------------------------
# growth degree


def growth_degree(f: Cplc, budget: SearchBudget | None = None,
                  rep: Analysis | None = None) -> GrowthVerdict:
    """The polynomial growth degree of f, searched from below.

    -1 means the zero function (decided exactly); a verdict of k with
    budget_exhausted False is definitive because the syntactic level bounds
    the degree from above.  `rep` is an Analysis of f (default:
    `Analysis.of(f, budget)`); the search runs under its budget, and a
    different `budget` beside it is an error.  Patterns are read lazily, as
    the module docstring describes.
    """
    an = Analysis.of(f, budget) if rep is None else rep
    if budget is not None and budget != an.budget:
        raise ValueError("budget %r differs from the analysis's %r" % (budget, an.budget))
    budget = an.budget
    if not any(an.rep.I):
        return GrowthVerdict(-1, False)
    k_max = f.level
    if k_max == 0:
        return GrowthVerdict(0, False)

    patterns = itertools.islice(
        itertools.chain.from_iterable(an.patterns.stream(size)
                                      for size in range(k_max, 0, -1)),
        budget.max_patterns)
    best_degree = 0
    witness = None
    witness_fit = None
    tried = 0
    for norm in patterns:
        tried += 1
        x0, coeffs = an.family.fit(norm, k_max)
        deg = newton_degree(coeffs, norm.size, k_max)
        if deg > best_degree:
            best_degree = deg
            witness = norm
            witness_fit = coeffs, norm.size, k_max, x0
        if best_degree == k_max:
            return GrowthVerdict(best_degree, False, witness, witness_fit, tried)
    return GrowthVerdict(best_degree, best_degree < k_max, witness, witness_fit, tried)


# ---------------------------------------------------------------------------
# equivalence modulo growth


def equiv_mod_k(f: Cplc, g: Cplc, k: int,
                budget: SearchBudget | None = None, rep: Analysis | None = None) -> bool:
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
    verdict = growth_degree(h, budget, rep)
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
    ultimately polynomial, without normalizing the pump words: it is the
    family of the pump words w_i^step, fitted by `_Family.fit` when every
    mu(w_i)^step settles.

    With step 1 this fails on functions that are only polynomial along
    idempotent subsequences (the classical (-1)^n n example); a suitable
    step restores polynomiality."""
    if rep is None:
        rep = series.minimize(f.to_linrep())
    family = _Family(rep)
    out = []
    for pattern in patterns:
        stepped = PumpingPattern(pattern.alphas, tuple(w * step for w in pattern.pumps))
        try:
            out.append(UltimatePolyReport(pattern, step, True,
                                          family.polynomial(stepped, f.level)))
        except PatternVerificationError:
            out.append(UltimatePolyReport(pattern, step, False))
    return out
