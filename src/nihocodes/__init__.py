"""Exact weight distributions for two families of cyclic codes with
generalized Niho zeroes, plus brute-force oracles that verify every
computable claim at desk scale."""

from .codespec import (
    CodeSpec,
    SpecValidationError,
    ValidatedSpec,
    admit_row,
    validate_spec,
)
from .galois import (
    DEFAULT_TABLE_LIMIT,
    FieldBuildError,
    FieldContext,
    TableLimitExceeded,
    build_field,
)
from .moments import n_r
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    PowerMomentReport,
    brute_distribution,
    char_sum,
    codeword_weight,
    n_r_brute,
    power_moment_check,
)
from .solver import (
    ModelViolationError,
    WeightDistribution,
    b_vector,
    enumerator_string,
    theoretical_weights,
    weight_distribution,
)

__version__ = "0.1.0"
