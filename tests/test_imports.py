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


def test_star_import_binds_every_export():
    out = _fresh("from slucas import *; import json, slucas; "
                 "print(json.dumps([n for n in slucas.__all__ "
                 "if n not in globals()]))")
    assert json.loads(out) == []


@pytest.mark.parametrize("name", [n for n in slucas.__all__
                                  if n != "__version__"])
def test_export_is_the_defining_modules_object(name):
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
