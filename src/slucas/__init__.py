"""Strong Lucas probable-prime testing, exact liar counting, prime
generation, and the error-bound calculators behind them.

Each public name loads its submodule on first use, so ``import slucas``
costs nothing until a name is touched.
"""

from importlib import import_module

__version__ = "0.1.0"

# The README's names, those the benchmark imports, and the types and errors
# they return or raise; everything else is imported from its submodule.
_EXPORTS = {
    "kernel": ("CapacityError", "Factorization", "factorize"),
    "lucas": ("LucasParams", "ParamSearchError", "RoundResult", "Verdict",
              "sample_params", "select_d", "strong_lucas_round"),
    "classical": ("baillie_psw", "run_rounds"),
    "counting": ("alpha", "sl_count"),
    "bounds": ("BoundReport", "error_bound"),
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
