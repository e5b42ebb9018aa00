"""The refactor's contract, enforced: batch and server no longer carry
their own spec-execution or key-computation code -- both import it from
:mod:`repro.exec` -- there is one worker model, the server's persistent
workers, and one route into the refinement search.  These tests are the
tripwire against the copies quietly growing back."""

import importlib
import inspect

import pytest

import repro.batch.executor as batch_executor
import repro.engine.diskcache as diskcache
import repro.exec.keys as keys
import repro.exec.runtime as runtime
import repro.exec.workers as workers
import repro.server.core as server_core
import repro.server.protocol as protocol


def test_batch_executor_delegates_execution():
    assert batch_executor.execute_spec is runtime.execute_spec


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
    assert "oneshot_worker_main" not in exec_pkg.__all__
    assert "oneshot_worker_main" not in dir(exec_pkg)


def test_one_refinement_route():
    # the search route is chosen by the model and the term shape; a user
    # switch, a partial-order reduction or an assertion wrapper layer
    # growing back next to it would trip these
    import repro.fdr as fdr
    from repro.engine import ProductLTS, VerificationPipeline

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
    assert protocol.structural_key is keys.structural_key
    assert protocol.strip_label is keys.strip_label


def test_diskcache_delegates_keys():
    assert diskcache.key_digest is keys.lts_key_digest
    assert diskcache.DISKCACHE_FORMAT_VERSION is keys.DISKCACHE_FORMAT_VERSION


def test_exec_facade_lazily_exposes_the_runtime():
    import repro.exec as exec_pkg

    assert exec_pkg.execute_spec is runtime.execute_spec
    assert exec_pkg.execute_cached is runtime.execute_cached
    assert exec_pkg.structural_key is keys.structural_key
    assert "ResultCache" in dir(exec_pkg)


def test_exec_facade_rejects_unknown_names():
    import repro.exec as exec_pkg

    try:
        exec_pkg.no_such_symbol
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected AttributeError")


def test_api_execute_check_routes_through_the_runtime(tmp_path):
    from repro import api
    from repro.batch.spec import CheckSpec
    from repro.csp import Event, Prefix, STOP

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
