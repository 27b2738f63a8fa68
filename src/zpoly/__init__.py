"""An effective theory of Z-valued polyregular functions.

Construct functions from counting first-order / monadic second-order
formulas or from rational expressions, compile them to exact linear
representations, decide equivalence, compute the polynomial growth degree,
build canonical residual transducers, and decide star-freeness.
"""

from .lang import (Alphabet, Dfa, FiniteMonoid, MonoidMorphism, compile_regex,
                   residual_language, transition_monoid)
from .series import LinRep, equivalent, indicator, minimize, reduce_minimize, spectrum_probe
from .cplc import Cplc, PumpingPattern, indicator_cplc, product_monoid
from .mso import count_to_cplc, count_to_linrep, count_sets_to_linrep, parse_count
from .forests import extract_patterns, simon_forest, skeleton_analysis, validate
from .analysis import (BudgetExhausted, SearchBudget, equiv_mod_k, growth_degree,
                       normalize_pattern, pattern_polynomial, ultimate_poly_check)
from .canon import ResidualTransducer, counter_free, residual_transducer, star_free

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Dfa", "FiniteMonoid", "MonoidMorphism", "compile_regex",
    "residual_language", "transition_monoid",
    "LinRep", "equivalent", "indicator", "minimize", "reduce_minimize",
    "spectrum_probe",
    "Cplc", "PumpingPattern", "indicator_cplc", "product_monoid",
    "count_to_cplc", "count_to_linrep", "count_sets_to_linrep", "parse_count",
    "extract_patterns", "simon_forest", "skeleton_analysis", "validate",
    "BudgetExhausted", "SearchBudget", "equiv_mod_k", "growth_degree",
    "normalize_pattern", "pattern_polynomial", "ultimate_poly_check",
    "ResidualTransducer", "counter_free", "residual_transducer", "star_free",
    "__version__",
]
