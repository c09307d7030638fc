"""Exact weight distributions for two families of cyclic codes with
generalized Niho zeroes, plus brute-force oracles that verify every
computable claim at desk scale."""

from .codespec import (
    CodeSpec,
    SpecValidationError,
    ValidatedSpec,
    cyclotomic_coset,
    exponents_f1,
    exponents_f2,
    minpoly_degree,
    minpoly_same,
    validate_spec,
)
from .galois import (
    DEFAULT_TABLE_LIMIT,
    FieldBuildError,
    FieldContext,
    TableLimitExceeded,
    build_field,
)
from .moments import b_count, n_r
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    PowerMomentReport,
    UnitCircle,
    brute_distribution,
    char_sum,
    char_sum_direct,
    codeword_weight,
    n_r_brute,
    power_moment_check,
    unit_circle,
    weight_from_char_sum,
)
from .solver import (
    ModelViolationError,
    MomentMatrix,
    WeightDistribution,
    b_vector,
    enumerator_string,
    invert_lagrange,
    moment_matrix,
    parse_enumerator,
    theoretical_weights,
    weight_distribution,
)

__version__ = "0.1.0"
