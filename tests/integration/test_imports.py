"""Import isolation: every entry point loads on its own, and loads little.

Each module below is imported first thing in a fresh interpreter, so an
import cycle that a fixed eager import order used to hide shows up as an
ImportError here.  ``import repro`` itself must load only the
:mod:`repro.api` v1 names, not the execution modes or the learner.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def _script_modules():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[)", text, re.M | re.S)
    return re.findall(r'^\S+ = "([\w.]+):\w+"', section.group(1), re.M)


def _packages():
    return ["repro"] + sorted(
        "repro." + path.parent.name for path in PACKAGE.glob("*/__init__.py")
    )


ENTRY_MODULES = sorted(
    set(_packages())
    | set(_script_modules())
    | {
        "repro.api",
        "repro.batch.spec",
        "repro.exec.resultcache",
        "repro.exec.runtime",
        "repro.exec.workers",
        "repro.server.core",
    }
)

#: subsystems a bare ``import repro`` must leave unloaded
NOT_LOADED_BY_ROOT = [
    "repro.batch",
    "repro.learn",
    "repro.quickcheck",
    "repro.rv",
    "repro.server",
    "repro.translator",
]


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_every_script_module_is_covered():
    assert len(_script_modules()) == 8
    assert "repro.fdr.cli" in ENTRY_MODULES


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    completed = _python("import importlib, sys; importlib.import_module(sys.argv[1])", module)
    assert completed.returncode == 0, completed.stderr


def test_import_repro_leaves_the_execution_modes_unloaded():
    completed = _python(
        "import sys, repro; "
        "print('\\n'.join(m for m in sys.argv[1:] if m in sys.modules))",
        *NOT_LOADED_BY_ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == []


def test_no_package_defines_a_lazy_facade():
    for init in sorted(PACKAGE.rglob("__init__.py")):
        tree = ast.parse(init.read_text(encoding="utf-8"))
        defined = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        assert not defined & {"__getattr__", "__dir__"}, init
