"""Exact evaluation laboratory for prime exponential sums with inverse phases.

The package evaluates sums of e(a * nbar / q) over primes and bilinear
ranges exactly (up to documented floating-point accumulation bounds),
counts solutions of the congruences and unit-fraction equations that
control their mean values, decomposes von Mangoldt sums into bilinear
pieces, and measures everything against the envelope bounds it is
supposed to obey.  All results are deterministic; worker counts change
wall time only.

Importing the package imports none of its modules.  Each public name
(and each submodule, as in ``kloosterlab.arith``) is imported from its
home module on first use and then kept here, so ``from kloosterlab
import prime_sum`` loads only expsums and what it needs, and a command
line call loads only what its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: public name -> the module that defines it
_HOMES = {
    name: module
    for module, names in {
        "accumulate": ("accumulation_bound", "exact_sum", "fsum_complex", "unit_roots",
                       "unit_roots_at"),
        "arith": ("MultiplicativeTables", "PrimeTable", "batch_inverses",
                  "build_multiplicative_tables", "largest_prime_factor", "sieve_primes"),
        "bilinear": ("BilinearSpec", "bilinear_sum", "dyadic_window", "type1_report",
                     "type2_avg_max_report", "type2_fixed_a_report"),
        "counting": ("classify_tuple", "count_congruence_solutions", "count_squarefull",
                     "count_unit_fraction_solutions", "sum_congruence_counts"),
        "errors": ("CapacityError", "ConsistencyError", "KloosterlabError"),
        "experiments": ("ComparisonRow", "ExponentFit", "RootResult", "TernaryCount",
                        "avg_max_report", "choose_U", "comparison_table", "exponent_fit",
                        "fixed_a_avg_report", "garaev_congruence_count",
                        "sieve_exponent_root", "ternary_exponent_root",
                        "ternary_rough_count"),
        "expsums": ("ExpSumQuery", "ExpSumValue", "inverse_phase_sum", "kloosterman",
                    "kloosterman_grid", "max_prime_sum", "prime_sum", "short_inverse_sum",
                    "weil_ratio"),
        "reports": ("BoundReport", "make_report"),
        "vaughan": ("BilinearComponent", "DecompositionCheck", "PrimePowerGap",
                    "VaughanDecomposition", "VaughanParams", "compare_decomposition",
                    "decompose", "evaluate_decomposition", "prime_power_gap",
                    "reconstruct_lambda"),
    }.items()
    for name in names
}

_SUBMODULES = frozenset(_HOMES.values()) | {"cli", "parallel"}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
