"""Exact matrix-group calculus over Laurent and cyclotomic-quotient rings."""

from .rings import (LaurentPoly, UnitMonomial, parse_poly, PolyParseError,
                    ExactDivisionError, divide_one_minus, divide_by_t_minus_one)
from .ideals import (BurnsideParams, IdealLattice, SContext,
                     cyclotomic_generators, cyclotomic_lattice, build_ideal_lattice,
                     sigma_power_lattice, p_power_sigma_check)
from .groups import (Matrix2, GroupContext, NormalForm, OrderResult,
                     NonConforming, ExponentLawViolation, normal_form,
                     basic_commutator, commutator,
                     commutator_word, matrix_inverse, order_in_G,
                     commutative_square_check, group_closure, check_row_fixed,
                     product_normal_form_rule, det_t_degree, free_reduce,
                     word_inverse, parse_word, t_exponent_sum, random_reduced_word,
                     random_zero_sum_word, tree_word)
from .kernels import (KernelOverflow, QuotientTables, QuotientMatrix, get_lane,
                      sigma_tables, tables_for, eval_word_quotient,
                      eval_is_identity, entries_at_t1, HAS_NUMBA)
from .tadic import (t1_valuation, vanishes_mod_sigma, check_derived_layer, SeriesContext,
                    SeriesMatrix, flatten_tree,
                    sample_layer_element, LayerSample)
from .verify import (VerificationReport, SolvabilityReport, solvability_bound,
                     verify_power_formula, verify_ideal_inclusions,
                     verify_burnside_exponent, verify_order_dichotomy,
                     verify_solvability, verify_square, verify_derived_layers,
                     verify_sanov, verify_normal_forms, SUITES)

__all__ = [
    "LaurentPoly", "UnitMonomial", "parse_poly",
    "PolyParseError", "ExactDivisionError", "divide_one_minus",
    "divide_by_t_minus_one",
    "BurnsideParams", "IdealLattice", "SContext",
    "cyclotomic_generators", "cyclotomic_lattice", "build_ideal_lattice",
    "sigma_power_lattice", "p_power_sigma_check",
    "Matrix2", "GroupContext", "NormalForm", "OrderResult",
    "NonConforming", "ExponentLawViolation", "normal_form",
    "basic_commutator", "commutator", "commutator_word",
    "matrix_inverse", "order_in_G", "commutative_square_check", "group_closure",
    "check_row_fixed", "product_normal_form_rule", "det_t_degree",
    "free_reduce", "word_inverse", "parse_word", "t_exponent_sum", "random_reduced_word",
    "random_zero_sum_word", "tree_word",
    "KernelOverflow", "QuotientTables", "QuotientMatrix", "get_lane",
    "sigma_tables", "tables_for", "eval_word_quotient", "eval_is_identity",
    "entries_at_t1", "HAS_NUMBA",
    "t1_valuation", "vanishes_mod_sigma", "check_derived_layer",
    "SeriesContext", "SeriesMatrix", "flatten_tree",
    "sample_layer_element", "LayerSample",
    "VerificationReport", "SolvabilityReport", "solvability_bound",
    "verify_power_formula", "verify_ideal_inclusions",
    "verify_burnside_exponent", "verify_order_dichotomy", "verify_solvability",
    "verify_square", "verify_derived_layers", "verify_sanov",
    "verify_normal_forms", "SUITES",
]

__version__ = "0.1.0"
