"""repro.server -- verification as a long-lived service.

The daemon the feedback loop of the paper's Fig. 1 runs against: instead of
paying interpreter start-up and cold compilation per CLI invocation, a
``cspserve`` process keeps a pool of warm workers (one shared
:class:`~repro.engine.diskcache.DiskCache`) behind a bounded job queue, and
accepts :class:`~repro.batch.spec.CheckSpec` documents over stdio-JSONL or
localhost HTTP/JSON.  Identical in-flight checks from any number of clients
coalesce onto one execution (dedup by structural key); full queues and
exceeded per-tenant quotas answer with deterministic retryable rejections;
verdicts are canonically byte-identical to an inline ``cspbatch`` run.

Layering::

    protocol.py   request/response documents, rejection codes, dedup keys
    core.py       queue + warm worker pool + dedup/quota/backpressure/drain
    stdio.py      JSON Lines frontend (responses in request order)
    http.py       localhost HTTP frontend (429/400/413/503 mapping)
    client.py     ServerClient -- the fail-closed CI-gate client shape
    cli.py        the ``cspserve`` console script
"""
