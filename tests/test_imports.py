"""The package loads a submodule only when one of its names is used, so a
cold `slucas bounds` process imports just the engine it prints."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slucas

SRC = str(Path(slucas.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """stdout of `python -c code` in a new interpreter that sees src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule():
    out = _fresh("import sys, json, slucas; print(json.dumps("
                 "[m for m in sys.modules if m.startswith('slucas.')]))")
    assert json.loads(out) == []


def _bounds_run_loads(args: list[str]) -> set[str]:
    """sys.modules after `slucas bounds <args>` in a fresh interpreter."""
    out = _fresh(
        "import io, json, sys, contextlib\n"
        "from slucas import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        cli.main(['bounds', *{args!r}])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    loaded = set(json.loads(out))
    assert "slucas.bounds" in loaded
    assert not {"click", "slucas.generation", "slucas.classical"} & loaded
    return loaded


# a table or single bound needs neither the liar counts nor the Lucas
# rounds, and no dataclasses (which pull in inspect) or fractions
TABLE_UNUSED = {"dataclasses", "inspect", "fractions", "slucas.counting",
                "slucas.lucas", "slucas.survey"}


def test_bounds_run_leaves_other_subcommands_unloaded():
    loaded = _bounds_run_loads(["--table", "1"])
    assert not TABLE_UNUSED & loaded, sorted(TABLE_UNUSED & loaded)


@pytest.mark.parametrize("args, unused", [
    (["--single", "512", "3"], TABLE_UNUSED),
    # a survey needs the liar counts, but not the Lucas rounds
    (["--survey-k", "13"], {"dataclasses", "slucas.lucas"}),
], ids=["single", "survey"])
def test_bounds_item_loads_only_its_engine(args, unused):
    loaded = _bounds_run_loads(args)
    assert not unused & loaded, sorted(unused & loaded)


# adding an export is a choice made on purpose: extend this set with it
PUBLIC_API = {
    "CapacityError", "Factorization", "factorize",
    "LucasParams", "ParamSearchError", "RoundResult", "Verdict",
    "sample_params", "select_d", "strong_lucas_round",
    "baillie_psw", "run_rounds",
    "alpha", "sl_count",
    "BoundReport", "q_bound",
    "GenConfig", "GenOutcome", "prime_inc_luc", "strong_luc_generate",
    "__version__",
}


def test_public_api_is_pinned():
    assert len(slucas.__all__) == len(PUBLIC_API) == 21
    assert set(slucas.__all__) == PUBLIC_API


def test_star_import_binds_every_export():
    out = _fresh("from slucas import *; import json, slucas; "
                 "print(json.dumps([n for n in slucas.__all__ "
                 "if n not in globals()]))")
    assert json.loads(out) == []


# names that left the package exports: each is still offered, and
# defined, by its submodule
SUBMODULE_API = {
    "kernel": ("count_primes_in_range", "is_perfect_square", "jacobi",
               "sieve_primes", "split_power_of_two"),
    "lucas": ("lucas_round", "lucas_uv_mod"),
    "classical": ("fermat_round", "miller_rabin_round"),
    "counting": ("alpha_bar", "fermat_count", "is_twin_prime_product",
                 "lucas_count", "mr_count", "phi_d", "psp_to_lpsp_compose",
                 "slpsp_bruteforce", "worst_case_ceiling"),
    "bounds": ("ScreenCensus", "asymptotic_check", "chain_rule",
               "n1_bound_coarse", "n1_bound_refined", "nr_bound_split",
               "prime_count_exact", "prime_lower_bound", "qk1_analytic",
               "qkr_upper", "rho", "screen_census", "table_rows",
               "ykts_bound", "ykts_table_cell"),
    "survey": ("ExactSurvey", "exact_qk1"),
}
SUBMODULE_OF = {name: module for module, names in SUBMODULE_API.items()
                for name in names}


@pytest.mark.parametrize("name", [*(n for n in slucas.__all__
                                    if n != "__version__"), *SUBMODULE_OF])
def test_export_is_the_defining_modules_object(name):
    if name in SUBMODULE_OF:
        assert name not in slucas.__all__
        obj = getattr(importlib.import_module(f"slucas.{SUBMODULE_OF[name]}"),
                      name)
        assert obj.__module__ == f"slucas.{SUBMODULE_OF[name]}"
        return
    obj = getattr(slucas, name)
    module = importlib.import_module(obj.__module__)
    assert module.__name__.startswith("slucas.")
    assert getattr(module, name) is obj


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        slucas.no_such_name
    assert not hasattr(slucas, "cmd_bounds")


def test_dir_lists_every_export():
    assert set(slucas.__all__) <= set(dir(slucas))
