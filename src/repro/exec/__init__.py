"""repro.exec -- the unified execution runtime.

Before this package existed, the three ways of running a check -- the
inline :mod:`repro.api` pipeline, the :mod:`repro.batch` worker pool and
the :mod:`repro.server` daemon -- each carried their own copy of the
submit → execute → cache → result plumbing, and a *completed* check was
thrown away the moment its requester was answered.  ``repro.exec`` is the
one layer all three now route through:

* :mod:`repro.exec.keys` computes every structural identity in the system
  -- the server's id-stripped dedup key, the LTS disk-cache digest and the
  result-cache digest all come from one module, versioned together.
* :mod:`repro.exec.resultcache` persists a completed check's canonical
  :class:`~repro.batch.spec.JobResult` bytes content-addressed by that
  key, so a later identical request in *any* mode answers without
  re-verifying.  The server's in-flight dedup table is the first tier of
  the same cache (same key, lifetime = one execution); the disk store is
  the second (lifetime = until invalidated).
* :mod:`repro.exec.runtime` owns spec execution: :func:`execute_spec` is
  the sequential reference semantics every mode is held to, and
  :func:`execute_cached` is the memoised flavour layered on a
  :class:`ResultCache`.
* :mod:`repro.exec.workers` owns the process boundary: the persistent
  warm worker the server scheduler drives (for ``cspserve`` and pooled
  ``cspbatch`` runs alike), and the shared failure-verdict constructors (worker death → ``ERROR``, deadline →
  ``TIMEOUT``, cancellation → ``CANCELLED``).

The package exports nothing itself: import each name from its submodule.
The submodules read the wire format from :mod:`repro.batch.spec`, which
imports nothing back, so any entry order is acyclic.

Soundness before availability, exactly like the LTS
:class:`~repro.engine.diskcache.DiskCache`: cache keys include the result
format version, the engine semantics version and the full pass
configuration; entries are validated on read and quarantined on any
defect; and only deterministic verdicts (``PASS``/``FAIL``) are ever
persisted.
"""
