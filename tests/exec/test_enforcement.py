"""The refactor's contract, enforced: batch and server no longer carry
their own spec-execution or key-computation code -- both import it from
:mod:`repro.exec` -- there is one worker model, the server's persistent
workers, one route into the refinement search, and one home per name (no
package or module re-exports a name another module defines).  These tests
are the tripwire against the copies quietly growing back."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import repro.batch.executor as batch_executor
import repro.engine.diskcache as diskcache
import repro.exec.keys as keys
import repro.exec.runtime as runtime
import repro.exec.workers as workers
import repro.server.core as server_core
import repro.server.protocol as protocol


def test_batch_executor_delegates_execution():
    assert batch_executor.execute_cached is runtime.execute_cached
    assert batch_executor.open_result_cache is runtime.open_result_cache
    # the sequential reference is imported from repro.exec.runtime only
    assert not hasattr(batch_executor, "execute_spec")


def test_batch_executor_owns_no_execution_helpers():
    for helper in ("_run_selftest", "_budget", "_worker_main"):
        assert not hasattr(batch_executor, helper), helper


def test_server_core_owns_no_worker_main():
    assert not hasattr(server_core, "_server_worker_main")
    assert server_core.persistent_worker_main is workers.persistent_worker_main
    assert server_core.failure_result is workers.failure_result


def test_one_worker_model():
    # pooled batches run on the server's persistent workers; a fork-per-job
    # scheduler growing back next to it would trip these
    import repro.exec as exec_pkg

    assert not hasattr(workers, "oneshot_worker_main")
    assert not hasattr(batch_executor, "_Running")
    assert "oneshot_worker_main" not in dir(exec_pkg)


def test_one_refinement_route():
    # the search route is chosen by the model and the term shape; a user
    # switch, a partial-order reduction or an assertion wrapper layer
    # growing back next to it would trip these
    import repro.fdr as fdr
    from repro.engine.pipeline import VerificationPipeline
    from repro.engine.product import ProductLTS

    keywords = inspect.signature(VerificationPipeline).parameters
    assert "on_the_fly" not in keywords
    assert "por" not in keywords
    assert not hasattr(ProductLTS, "_ample")
    for gone in ("Session", "compress", "RefinementAssertion", "PropertyAssertion"):
        assert not hasattr(fdr, gone), gone
    for module in ("repro.fdr.assertions", "repro.fdr.compress", "repro.engine.alphabet"):
        with pytest.raises(ImportError):
            importlib.import_module(module)


def test_server_protocol_delegates_keys():
    assert server_core.structural_key is keys.structural_key
    assert server_core.strip_label is keys.strip_label
    for gone in ("structural_key", "strip_label"):
        assert not hasattr(protocol, gone), gone


def test_diskcache_delegates_keys():
    assert diskcache.lts_key_digest is keys.lts_key_digest
    assert diskcache.DISKCACHE_FORMAT_VERSION is keys.DISKCACHE_FORMAT_VERSION
    assert not hasattr(diskcache, "key_digest")


def test_exec_facade_lazily_exposes_the_runtime():
    """The runtime is reached as the submodule ``repro.exec.runtime`` only:
    the package re-exports none of its names and loads it on no one's behalf."""
    import repro.exec as exec_pkg

    assert exec_pkg.runtime is runtime
    assert exec_pkg.keys is keys
    assert not hasattr(exec_pkg, "__all__")
    for gone in ("execute_spec", "execute_cached", "structural_key", "ResultCache"):
        assert not hasattr(exec_pkg, gone), gone
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.exec; print('repro.exec.runtime' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def test_exec_facade_rejects_unknown_names():
    import repro.exec as exec_pkg

    assert not hasattr(exec_pkg, "__getattr__")
    with pytest.raises(AttributeError):
        exec_pkg.no_such_symbol
    with pytest.raises(AttributeError):
        exec_pkg.execute_spec


#: names that used to resolve through a re-export; each has one home now
GONE = [
    ("repro.exec", "execute_spec"),
    ("repro.batch", "execute_spec"),
    ("repro.batch", "run_batch"),
    ("repro.batch", "BatchReport"),
    ("repro.batch.executor", "execute_spec"),
    ("repro.engine", "key_digest"),
    ("repro.engine", "DISKCACHE_FORMAT_VERSION"),
    ("repro.engine.diskcache", "key_digest"),
    ("repro.server", "structural_key"),
    ("repro.server.protocol", "structural_key"),
    ("repro.server.protocol", "strip_label"),
    ("repro.csp", "LTS"),
    ("repro.csp.lts", "LTS"),
]


@pytest.mark.parametrize("module,name", GONE, ids=[".".join(g) for g in GONE])
def test_reexported_name_is_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_api_execute_check_routes_through_the_runtime(tmp_path):
    from repro import api
    from repro.batch.spec import CheckSpec
    from repro.csp.events import Event
    from repro.csp.process import Prefix, STOP

    term = Prefix(Event("a"), STOP)
    spec = CheckSpec.refinement(term, term, "T")
    direct = runtime.execute_spec(spec)
    cache_dir = str(tmp_path / "rc")
    cold = api.execute_check(spec, result_cache_dir=cache_dir)
    warm = api.execute_check(spec, result_cache_dir=cache_dir)
    assert (
        direct.canonical_line()
        == cold.canonical_line()
        == warm.canonical_line()
    )
