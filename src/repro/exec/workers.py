"""The process boundary: the worker entry point and failure verdicts.

:func:`persistent_worker_main` is the one worker shape in the system: a
warm loop over ``(spec document, profile?)`` requests on a duplex pipe, so
the interpreter, the imported toolchain and both cache directories stay
hot across requests.  ``None`` is the shutdown sentinel.  The
:class:`~repro.server.core.VerificationServer` scheduler drives it, for
the ``cspserve`` daemon and for every pooled ``cspbatch`` run alike.

It is a top-level function (not a closure) so it works under the
``spawn`` start method as well as ``fork``, and it speaks JSON spec
documents across the pipe -- the same schema as the ``cspbatch`` manifest
-- so workers never unpickle code.

It takes an optional result-cache directory and runs requests through
:func:`~repro.exec.runtime.execute_cached`: the server probes the store at
submission (a hit never costs a worker request or a queue slot), and the
worker probes again around execution -- catching entries another worker
promoted meanwhile -- then writes its own verdict through.

:func:`failure_result` builds the verdicts that exist *because* there is a
process boundary: worker death -> ``ERROR``, deadline -> ``TIMEOUT``,
shutdown -> ``CANCELLED``.  They are never cached (see
:func:`~repro.exec.resultcache.cacheable`) -- a crash describes this run's
environment, not the check.
"""

from __future__ import annotations

from typing import Optional

from ..batch.spec import CheckSpec, ERROR, JobResult, ManifestError
from .runtime import execute_cached, open_result_cache


def failure_result(
    verdict: str,
    error: str,
    *,
    index: int = 0,
    check_id: Optional[str] = None,
    name: Optional[str] = None,
) -> JobResult:
    """A process-boundary verdict (``ERROR``/``TIMEOUT``/``CANCELLED``)."""
    return JobResult(index, check_id, verdict, name=name, error=error)


def persistent_worker_main(
    conn,
    cache_dir: Optional[str],
    result_cache_dir: Optional[str] = None,
) -> None:
    """One warm server worker: loop over (spec document, profile?) requests."""
    result_cache = open_result_cache(result_cache_dir)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            spec_doc, want_profile = message
            try:
                spec = CheckSpec.from_doc(spec_doc)
                result = execute_cached(
                    spec,
                    0,
                    cache_dir=cache_dir,
                    profile=want_profile,
                    result_cache=result_cache,
                    spec_doc=spec_doc,
                )
            except ManifestError as error:
                result = failure_result(
                    ERROR,
                    "undecodable spec: {}".format(error),
                    check_id=spec_doc.get("id"),
                    name=spec_doc.get("name"),
                )
            try:
                conn.send(result.to_doc())
            except (BrokenPipeError, OSError):
                break
    finally:
        try:
            conn.close()
        except OSError:
            pass
