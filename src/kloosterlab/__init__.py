"""Exact evaluation laboratory for prime exponential sums with inverse phases.

The package evaluates sums of e(a * nbar / q) over primes and bilinear
ranges exactly (up to documented floating-point accumulation bounds),
counts solutions of the congruences and unit-fraction equations that
control their mean values, decomposes von Mangoldt sums into bilinear
pieces, and measures everything against the envelope bounds it is
supposed to obey.  All results are deterministic; worker counts change
wall time only.
"""

from .accumulate import accumulation_bound, exact_sum, fsum_complex, unit_roots, unit_roots_at
from .arith import (
    MultiplicativeTables,
    PrimeTable,
    batch_inverses,
    build_multiplicative_tables,
    largest_prime_factor,
    sieve_primes,
)
from .bilinear import (
    BilinearSpec,
    bilinear_sum,
    dyadic_window,
    type1_report,
    type2_avg_max_report,
    type2_fixed_a_report,
)
from .counting import (
    classify_tuple,
    count_congruence_solutions,
    count_squarefull,
    count_unit_fraction_solutions,
    sum_congruence_counts,
)
from .errors import CapacityError, ConsistencyError, KloosterlabError
from .experiments import (
    ComparisonRow,
    ExponentFit,
    RootResult,
    TernaryCount,
    avg_max_report,
    choose_U,
    comparison_table,
    exponent_fit,
    fixed_a_avg_report,
    garaev_congruence_count,
    sieve_exponent_root,
    ternary_exponent_root,
    ternary_rough_count,
)
from .expsums import (
    ExpSumQuery,
    ExpSumValue,
    inverse_phase_sum,
    kloosterman,
    kloosterman_grid,
    max_prime_sum,
    prime_sum,
    short_inverse_sum,
    weil_ratio,
)
from .reports import BoundReport, make_report
from .vaughan import (
    BilinearComponent,
    DecompositionCheck,
    PrimePowerGap,
    VaughanDecomposition,
    VaughanParams,
    compare_decomposition,
    decompose,
    evaluate_decomposition,
    prime_power_gap,
    reconstruct_lambda,
)

__version__ = "0.1.0"

__all__ = [
    "BilinearComponent",
    "BilinearSpec",
    "BoundReport",
    "CapacityError",
    "ComparisonRow",
    "ConsistencyError",
    "DecompositionCheck",
    "ExpSumQuery",
    "ExpSumValue",
    "ExponentFit",
    "KloosterlabError",
    "MultiplicativeTables",
    "PrimePowerGap",
    "PrimeTable",
    "RootResult",
    "TernaryCount",
    "VaughanDecomposition",
    "VaughanParams",
    "accumulation_bound",
    "avg_max_report",
    "batch_inverses",
    "bilinear_sum",
    "build_multiplicative_tables",
    "choose_U",
    "classify_tuple",
    "comparison_table",
    "compare_decomposition",
    "count_congruence_solutions",
    "count_squarefull",
    "count_unit_fraction_solutions",
    "decompose",
    "dyadic_window",
    "evaluate_decomposition",
    "exact_sum",
    "exponent_fit",
    "fixed_a_avg_report",
    "fsum_complex",
    "garaev_congruence_count",
    "inverse_phase_sum",
    "kloosterman",
    "kloosterman_grid",
    "largest_prime_factor",
    "make_report",
    "max_prime_sum",
    "prime_power_gap",
    "prime_sum",
    "reconstruct_lambda",
    "short_inverse_sum",
    "sieve_exponent_root",
    "sieve_primes",
    "sum_congruence_counts",
    "ternary_exponent_root",
    "ternary_rough_count",
    "type1_report",
    "type2_avg_max_report",
    "type2_fixed_a_report",
    "unit_roots",
    "unit_roots_at",
    "weil_ratio",
]
