"""Strong Lucas probable-prime testing, exact liar counting, prime
generation, and the error-bound calculators behind them.

Each public name loads its submodule on first use, so ``import slucas``
costs nothing until a name is touched.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "kernel": ("CapacityError", "Factorization", "NotInvertibleError",
               "count_primes_in_range", "factorize", "is_perfect_square",
               "jacobi", "mod_inv", "sieve_primes", "split_power_of_two"),
    "lucas": ("LucasParams", "ParamSearchError", "RoundResult", "Verdict",
              "lucas_round", "lucas_uv_mod", "params_for_d", "sample_params",
              "select_d", "strong_lucas_round"),
    "classical": ("baillie_psw", "fermat_round", "miller_rabin_round",
                  "run_rounds"),
    "counting": ("alpha", "alpha_bar", "fermat_count", "is_twin_prime_product",
                 "lucas_count", "mr_count", "phi_d", "psp_to_lpsp_compose",
                 "sl_count", "slpsp_bruteforce", "worst_case_ceiling"),
    "bounds": ("BoundReport", "ScreenCensus", "asymptotic_check",
               "chain_rule", "n1_bound_coarse", "n1_bound_refined",
               "nr_bound_split", "prime_count_exact", "prime_lower_bound",
               "q_bound", "qk1_analytic", "qkr_upper", "rho", "screen_census",
               "table_rows", "ykts_bound", "ykts_table_cell"),
    "survey": ("ExactSurvey", "exact_qk1"),
    "generation": ("GenConfig", "GenOutcome", "prime_inc_luc",
                   "strong_luc_generate"),
}

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})
