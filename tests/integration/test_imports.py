"""Import isolation: every entry point loads on its own, and loads little.

Each module below is imported first thing in a fresh interpreter, so an
import cycle that a fixed eager import order used to hide shows up as an
ImportError here.  ``import repro`` itself must load only the
:mod:`repro.api` v1 names, not the execution modes or the learner.  Below
the root, a subpackage ``__init__`` is its docstring and nothing else
(bar the names the ``perfbench/`` harness imports), and each console
script loads a pinned set of subpackages.
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
PERFBENCH = ROOT / "perfbench"


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


def _subpackages():
    return sorted(path.parent.name for path in PACKAGE.glob("*/__init__.py"))


def _benchmark_facade_names():
    """``{package: names}`` that ``perfbench/*.py`` imports from a subpackage
    itself rather than from one of its modules."""
    names = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            parts = (node.module or "").split(".")
            if len(parts) != 2 or parts[0] != "repro":
                continue
            package = PACKAGE / parts[1]
            for alias in node.names:
                if not (package / (alias.name + ".py")).exists():
                    names.setdefault(parts[1], set()).add(alias.name)
    return names


@pytest.mark.parametrize("package", _subpackages())
def test_subpackage_init_is_its_docstring(package):
    init = PACKAGE / package / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    assert ast.get_docstring(tree), init
    allowed = _benchmark_facade_names().get(package, set())
    for node in tree.body[1:]:
        assert isinstance(node, ast.ImportFrom) and node.level == 1, (
            "{}:{}: only the names perfbench/ imports may be re-exported".format(
                init, node.lineno
            )
        )
        exported = {alias.asname or alias.name for alias in node.names}
        assert exported <= allowed, (init, sorted(exported - allowed))


#: the subpackages each console script loads
SCRIPT_SUBPACKAGES = {
    "repro.batch.cli": "batch csp engine exec fdr obs passes server",
    "repro.candb.cli": "candb csp cspm engine exec fdr obs passes",
    "repro.fdr.cli": "csp cspm engine exec fdr obs passes",
    "repro.learn.cli": "canbus candb capl csp engine exec fdr learn obs passes rv",
    "repro.quickcheck.cli": "canbus capl csp engine exec fdr obs passes quickcheck",
    "repro.rv.cli": "batch candb csp engine exec fdr obs passes rv",
    "repro.server.cli": "batch csp engine exec fdr obs passes server",
    "repro.translator.cli": "capl csp cspm engine exec fdr obs passes translator",
}


def test_every_script_has_pinned_subpackages():
    assert set(SCRIPT_SUBPACKAGES) == set(_script_modules())


@pytest.mark.parametrize("module", sorted(SCRIPT_SUBPACKAGES))
def test_script_loads_only_its_stages(module):
    completed = _python(
        "import importlib, sys; importlib.import_module(sys.argv[1]); "
        "print(*sorted(name.split('.')[1] for name, m in sys.modules.items() "
        "if name.startswith('repro.') and hasattr(m, '__path__')))",
        module,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == SCRIPT_SUBPACKAGES[module].split()


def test_pass_table_needs_no_package_import():
    """``--compress`` names resolve with only the pipeline loaded: the pass
    table is a literal, not filled by importing :mod:`repro.passes`."""
    completed = _python(
        "import repro.engine.pipeline as p; "
        "from repro.csp.process import Environment; "
        "print(*[x.name for x in p.VerificationPipeline(Environment(), "
        "passes='default').passes])"
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["dead", "tau_loop", "diamond", "sbisim"]
