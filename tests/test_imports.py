"""The package loads a submodule only when one of its names is used, so a
cold process imports just what it runs: `slucas bounds` the engine it
prints, and testing or generating primes no bound engine at all."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slucas
from slucas.generation import GenConfig, GenOutcome
from slucas.lucas import LucasParams, RoundResult, Verdict

SRC = str(Path(slucas.__file__).resolve().parents[1])
SUBMODULES = {f"slucas.{p.stem}" for p in Path(SRC, "slucas").glob("*.py")
              if p.stem != "__init__"}


def _fresh(code: str) -> subprocess.CompletedProcess:
    """`python -X importtime -c code` in a new interpreter that sees src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def _importers(importtime: str) -> dict[str, str]:
    """Each module -> the module whose import pulled it in, read off the
    -X importtime lines: the child writes a module once its import ends,
    indented one step deeper than its importer, which is written later."""
    importers, open_ = {}, []   # open_: (depth, module) awaiting an importer
    for line in importtime.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or not fields[1].strip().isdigit():
            continue
        name = fields[2].strip()
        depth = len(fields[2]) - len(fields[2].lstrip())
        while open_ and open_[-1][0] > depth:
            importers[open_.pop()[1]] = name
        open_.append((depth, name))
    return importers


# runs the code with its stdout dropped and a zero exit allowed, then
# lists sys.modules without importing anything for it.  The package loads
# its submodules through importlib.import_module, whose imports -X
# importtime does not log, so the child routes them through __import__.
_CHILD = """\
import contextlib, importlib, io, sys

def logged_import(name, package=None):
    name = package + name if name.startswith(".") else name
    __import__(name)
    return sys.modules[name]

importlib.import_module = logged_import
with contextlib.redirect_stdout(io.StringIO()):
    try:
        exec(compile({code!r}, "<pinned>", "exec"), {{}})
    except SystemExit as exc:
        assert not exc.code, exc.code
print("\\n".join(sorted(sys.modules)))
"""


def _loads(code: str, unwanted: set[str]) -> set[str]:
    """sys.modules after `code` in a fresh interpreter, checked to hold none
    of ``unwanted``; a failure names each one and the imports that pulled
    it in."""
    proc = _fresh(_CHILD.format(code=code))
    loaded = set(proc.stdout.split())
    importers = _importers(proc.stderr)

    def chain(module: str) -> str:
        links = [module]
        while links[-1] in importers:
            links.append(importers[links[-1]])
        return " <- ".join(links + ["the pinned code"])

    found = sorted(unwanted & loaded)
    assert not found, "unwanted imports: " + "; ".join(map(chain, found))
    return loaded


def test_import_loads_no_submodule():
    _loads("import slucas", SUBMODULES)


def test_pin_failure_names_the_imports_that_pulled_a_module_in():
    with pytest.raises(AssertionError, match=r"slucas\.kernel <- slucas\.lucas "
                                             r"<- the pinned code"):
        _loads("import slucas.lucas", {"slucas.kernel"})


# the generators' worker pool is os.fork and pipes: no process runs these
POOL_UNUSED = {"concurrent.futures", "multiprocessing"}
# and only a process that runs them loads these
POOL_ONLY = {"slucas.workers", "select"}


def _bounds_run_loads(args: list[str], unused: set[str]) -> set[str]:
    """sys.modules after `slucas bounds <args>` in a fresh interpreter."""
    return _loads(f"from slucas import cli; cli.main(['bounds', *{args!r}])",
                  {"click", "slucas.generation", "slucas.classical"}
                  | POOL_UNUSED | unused)


# a table or single bound needs neither the liar counts nor the Lucas
# rounds, and no dataclasses (which pull in inspect) or fractions
TABLE_UNUSED = {"dataclasses", "inspect", "fractions", "slucas.counting",
                "slucas.lucas"}


def test_bounds_run_leaves_other_subcommands_unloaded():
    assert "slucas.bounds" in _bounds_run_loads(["--table", "1"], TABLE_UNUSED)


@pytest.mark.parametrize("args, unused, engine", [
    (["--single", "512", "3"], TABLE_UNUSED, "slucas.bounds"),
    # a survey needs the liar counts, but not the Lucas rounds or the
    # bound engines
    (["--survey-k", "13"], {"dataclasses", "slucas.lucas", "slucas.bounds"},
     "slucas.counting"),
], ids=["single", "survey"])
def test_bounds_item_loads_only_its_engine(args, unused, engine):
    assert engine in _bounds_run_loads(args, unused)


# testing and generating primes load kernel, lucas, classical and
# generation only: no bound engine, no dataclasses, no process pool
# module, and json only for a transcript
PRIME_UNUSED = {"slucas.bounds", "slucas.counting", "dataclasses",
                "inspect", "fractions"} | POOL_UNUSED
CLI = "from slucas import cli; cli.main({})"


@pytest.mark.parametrize("code", [
    "import slucas; slucas.strong_luc_generate(slucas.GenConfig(bits=64, "
    "rounds=3, seed=0))",
    "import slucas; slucas.prime_inc_luc(slucas.GenConfig(bits=64, "
    "rounds=3, seed=0))",
    "import slucas; slucas.baillie_psw(2 ** 61 - 1)",
    CLI.format(["test", "97"]),
    CLI.format(["generate", "--bits", "64", "--seed", "1"]),
    CLI.format(["generate", "--bits", "64", "--seed", "1",
                "--mode", "incremental"]),
    CLI.format(["--version"]),
], ids=["uniform", "incremental", "bpsw", "cli-test", "cli-generate",
        "cli-incremental", "cli-version"])
def test_prime_paths_load_no_bound_engine(code):
    _loads(code, PRIME_UNUSED | POOL_ONLY | {"json"})


@pytest.mark.parametrize("mode", ["uniform", "incremental"])
def test_one_shot_generation_below_pool_bits_loads_no_pool(mode):
    # a process's first call forks no pool below POOL_BITS (768)
    code = CLI.format(["generate", "--bits", "512", "--seed", "1",
                       "--mode", mode])
    _loads(code, PRIME_UNUSED | POOL_ONLY | {"json"})


@pytest.mark.parametrize("mode", ["uniform", "incremental"])
def test_pooled_generation_loads_only_the_workers_module(mode):
    # past POOL_BITS the base-2 tests and Lucas rounds run in forked workers
    code = CLI.format(["generate", "--bits", "1024", "--seed", "1",
                       "--mode", mode])
    assert POOL_ONLY <= _loads(code, PRIME_UNUSED | {"json"})


def test_count_loads_no_pool_module():
    _loads(CLI.format(["count", "1000036000099", "--what", "mr"]),
           POOL_UNUSED | {"slucas.generation", "slucas.bounds"})


def test_transcript_alone_loads_json(tmp_path):
    path = str(tmp_path / "t.jsonl")
    code = CLI.format(["generate", "--bits", "64", "--seed", "1",
                       "--transcript", path])
    assert "json" in _loads(code, PRIME_UNUSED)
    assert Path(path).read_text().count("\n") > 0


# the four records the prime paths return, each built twice: callers see
# their repr, ==, hash and truthiness, and none can be assigned to
RECORDS = [
    (lambda: RoundResult(Verdict.COMPOSITE, "gcd-P", 3), False,
     "RoundResult(verdict=<Verdict.COMPOSITE: 'composite'>, reason='gcd-P', "
     "factor=3)"),
    (lambda: LucasParams(1, -1), True, "LucasParams(P=1, Q=-1)"),
    (lambda: GenConfig(bits=64), True,
     "GenConfig(bits=64, rounds=1, d=None, screen=166, window=None, "
     "seed=None)"),
    (lambda: GenOutcome(None, 5, 0, [{"n": "0x41"}]), False,
     "GenOutcome(result=None, candidates_tested=5, rounds_run=0, "
     "transcript=[{'n': '0x41'}])"),
]


@pytest.mark.parametrize("make, truth, text", RECORDS,
                         ids=["RoundResult", "LucasParams", "GenConfig",
                              "GenOutcome"])
def test_records_keep_their_behaviour(make, truth, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and a is not b
    if isinstance(a, GenOutcome):   # its transcript list is unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert bool(a) is truth
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], 7)


def test_gen_config_checks_every_way_it_is_built():
    cfg = GenConfig(bits=64)
    assert cfg._replace(bits=65) == GenConfig(bits=65)
    assert type(cfg._replace(seed=1)) is GenConfig
    with pytest.raises(ValueError, match="bits >= 5"):
        cfg._replace(bits=3)
    with pytest.raises(ValueError, match="rounds >= 1"):
        GenConfig._make([64, 0])


# adding an export is a choice made on purpose: extend this set with it
PUBLIC_API = {
    "CapacityError", "Factorization", "factorize",
    "LucasParams", "ParamSearchError", "RoundResult", "Verdict",
    "sample_params", "select_d", "strong_lucas_round",
    "baillie_psw", "run_rounds",
    "alpha", "sl_count",
    "BoundReport", "error_bound",
    "GenConfig", "GenOutcome", "prime_inc_luc", "strong_luc_generate",
    "__version__",
}


def test_public_api_is_pinned():
    assert len(slucas.__all__) == len(PUBLIC_API) == 21
    assert set(slucas.__all__) == PUBLIC_API


def test_star_import_binds_every_export():
    out = _fresh("from slucas import *; import json, slucas; "
                 "print(json.dumps([n for n in slucas.__all__ "
                 "if n not in globals()]))").stdout
    assert json.loads(out) == []


# names that left the package exports: each is still offered, and
# defined, by its submodule
SUBMODULE_API = {
    "kernel": ("count_primes_in_range", "is_perfect_square", "jacobi",
               "sieve_primes", "split_power_of_two"),
    "lucas": ("lucas_round",),
    "classical": ("fermat_round", "miller_rabin_round"),
    "counting": ("ExactSurvey", "alpha_bar", "exact_qk1", "fermat_count",
                 "is_twin_prime_product", "lucas_count", "lucas_uv_mod",
                 "mr_count", "phi_d", "psp_to_lpsp_compose",
                 "slpsp_bruteforce", "worst_case_ceiling"),
    "bounds": ("ScreenCensus", "chain_rule", "n1_bound_coarse",
               "n1_bound_refined", "nr_bound_split", "prime_count_exact",
               "prime_lower_bound", "qk1_analytic", "rho", "screen_census",
               "table_rows", "ykts_bound", "ykts_table_cell"),
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
