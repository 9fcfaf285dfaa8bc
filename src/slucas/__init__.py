"""Strong Lucas probable-prime testing, exact liar counting, prime
generation, and the error-bound calculators behind them."""

from .kernel import (CapacityError, Factorization, NotInvertibleError,
                     count_primes_in_range, factorize, is_perfect_square,
                     jacobi, mod_add, mod_exp, mod_inv, mod_mul, sieve_primes,
                     split_power_of_two)
from .lucas import (LucasParams, ParamSearchError, RoundResult, Verdict,
                    lucas_round, lucas_uv_exact, lucas_uv_mod, params_for_d,
                    sample_params, select_d, strong_lucas_round)
from .classical import baillie_psw, fermat_round, miller_rabin_round
from .counting import (alpha, alpha_bar, fermat_count, is_twin_prime_product,
                       lucas_count, mr_count, phi_d, psp_to_lpsp_compose,
                       sl_count, slpsp_bruteforce, worst_case_ceiling)
from .bounds import (BoundReport, ExactSurvey, ScreenCensus, all_t_bound,
                     asymptotic_check, chain_rule, exact_qk1, n1_bound_coarse,
                     n1_bound_refined, nr_bound_split, prime_count_exact,
                     prime_lower_bound, q_bound, qk1_analytic, qkr_upper, rho,
                     screen_census, table_rows, ykts_bound, ykts_table_cell,
                     ykts_total)
from .generation import (GenConfig, GenOutcome, prime_inc_luc,
                         strong_luc_generate)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "Factorization", "NotInvertibleError",
    "count_primes_in_range", "factorize", "is_perfect_square", "jacobi",
    "mod_add", "mod_exp", "mod_inv", "mod_mul", "sieve_primes",
    "split_power_of_two",
    "LucasParams", "ParamSearchError", "RoundResult", "Verdict",
    "lucas_round", "lucas_uv_exact", "lucas_uv_mod", "params_for_d",
    "sample_params", "select_d", "strong_lucas_round",
    "baillie_psw", "fermat_round", "miller_rabin_round",
    "alpha", "alpha_bar", "fermat_count", "is_twin_prime_product",
    "lucas_count", "mr_count", "phi_d", "psp_to_lpsp_compose", "sl_count",
    "slpsp_bruteforce", "worst_case_ceiling",
    "BoundReport", "ExactSurvey", "ScreenCensus", "all_t_bound",
    "asymptotic_check", "chain_rule", "exact_qk1", "n1_bound_coarse",
    "n1_bound_refined", "nr_bound_split", "prime_count_exact",
    "prime_lower_bound", "q_bound", "qk1_analytic", "qkr_upper", "rho",
    "screen_census", "table_rows", "ykts_bound", "ykts_table_cell",
    "ykts_total",
    "GenConfig", "GenOutcome", "prime_inc_luc", "strong_luc_generate",
    "__version__",
]
