"""repro.batch -- batch verification over a persistent worker pool.

The paper's workflow checks one assertion at a time in FDR; real audits
discharge dozens (every Table III requirement, every extracted ECU model
against every specification).  This package fans a list of
:class:`CheckSpec` values over up to *jobs* persistent worker processes,
scheduled by the same :class:`~repro.server.core.VerificationServer` core
the ``cspserve`` daemon runs:

* **Crash isolation** -- a crashing, looping, or exiting check fails
  *its* job (``ERROR``/``TIMEOUT``); its worker is respawned and the rest
  of the batch completes.  Identical checks coalesce onto one execution.
* **Determinism** -- results come back in input order and each job runs in
  a fresh pipeline; a parallel run's canonical results are byte-identical
  to the sequential reference (:func:`~repro.exec.runtime.execute_spec`),
  which the conformance corpus under ``tests/conformance`` enforces.
* **Shared compilation** -- workers layer the in-memory cache over a
  content-addressed on-disk store (:mod:`repro.engine.diskcache`), so one
  worker's compiled automaton warms every sibling and every later session.

Surfaced on the command line as ``cspbatch`` (manifest in, JSONL out) and
programmatically as :func:`repro.batch.executor.run_batch` and
:func:`repro.api.verify_requirements`.  The wire format lives in
:mod:`repro.batch.spec` and the runner in :mod:`repro.batch.executor`,
which :mod:`repro.exec` does not import.
"""
