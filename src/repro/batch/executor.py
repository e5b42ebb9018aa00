"""The batch executor: fan a spec list over persistent worker processes.

A pooled batch runs on a private, in-process
:class:`~repro.server.core.VerificationServer` -- the same scheduler the
``cspserve`` daemon uses -- with up to *jobs* warm workers.  The failure
modes a batch must survive are the server's: a worker that segfaults (or
``os._exit``\\ s) fails only the check it was running, and a check past
its deadline is terminated; either way the worker is respawned and the
rest of the batch carries on.  Identical checks (the same spec under
different ids) coalesce onto one execution, each result keeping its own
``id``/``index``.

Determinism: results are keyed by the spec's position in the input list and
reported in that order regardless of completion order, and each check runs
in a fresh pipeline (own environment, alphabet table, in-memory cache), so
nothing about scheduling can leak into a verdict.  Execution itself lives
in :mod:`repro.exec` -- this module only schedules:
:func:`~repro.exec.runtime.execute_spec` is the sequential reference the
pool is held to, and two caches accelerate workers without coupling them.
The LTS disk cache (:mod:`repro.engine.diskcache`) makes a warm compile
reproduce the cold compile's automaton exactly; the result cache
(:mod:`repro.exec.resultcache`) memoises whole verdicts -- the server
probes it at submission (a hit never costs a worker request) and workers
promote fresh outcomes write-through.

Verdict taxonomy per job:

========== ==============================================================
``PASS``   the check ran and held
``FAIL``   the check ran and produced a counterexample
``ERROR``  the check raised, or its worker died (crash, nonzero exit)
``TIMEOUT`` the job exceeded its deadline and was terminated
``CANCELLED`` the batch was cancelled (or hit its batch deadline) first
========== ==============================================================
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..exec.runtime import execute_cached, open_result_cache
from ..exec.resultcache import ResultCache
from ..exec.workers import failure_result
from ..obs.profile import Profile, merge_profiles
from ..obs.trace import Tracer, ensure_tracer
from ..server.core import Ticket, VerificationServer
from ..server.protocol import Rejection
from .spec import CANCELLED, CheckSpec, ERROR, JobResult, PASS

#: how often a pooled batch re-checks its cancel event (seconds)
_CANCEL_POLL = 0.1


class BatchReport:
    """All job results of one batch, in input order, plus batch totals."""

    def __init__(
        self,
        results: List[JobResult],
        *,
        wall_ms: float,
        jobs: int,
        profile: Optional[Profile] = None,
        result_cache_stats: Optional[Dict[str, int]] = None,
    ) -> None:
        self.results = results
        self.wall_ms = wall_ms
        self.jobs = jobs
        #: per-job profiles merged by summation (aggregate compute; may
        #: exceed wall_ms under parallelism -- the gap is the speedup)
        self.profile = profile
        #: the parent-side :meth:`~repro.exec.resultcache.ResultCache.stats`
        #: snapshot (None when memoisation was off); pooled workers keep
        #: their own write-through counters, so parent numbers cover probes
        self.result_cache_stats = result_cache_stats

    @property
    def ok(self) -> bool:
        return all(result.verdict == PASS for result in self.results)

    def counts(self) -> Dict[str, int]:
        return verdict_counts(self.results)

    def summary(self) -> str:
        return "{} in {:.1f} ms on {} worker{}".format(
            verdict_tally(self.results),
            self.wall_ms,
            self.jobs,
            "" if self.jobs == 1 else "s",
        )

    def __repr__(self) -> str:
        return "BatchReport({})".format(self.summary())


def verdict_counts(results: Sequence[JobResult]) -> Dict[str, int]:
    """How many of *results* carry each verdict."""
    tally: Dict[str, int] = {}
    for result in results:
        tally[result.verdict] = tally.get(result.verdict, 0) + 1
    return tally


def verdict_tally(results: Sequence[JobResult]) -> str:
    """``N jobs (k FAIL, m PASS)``: the head of every batch summary line."""
    parts = [
        "{} {}".format(count, verdict)
        for verdict, count in sorted(verdict_counts(results).items())
    ]
    return "{} jobs ({})".format(len(results), ", ".join(parts) or "empty")


def run_batch(
    specs: Sequence[CheckSpec],
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    batch_timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    result_cache_dir: Optional[str] = None,
    obs: Optional[Tracer] = None,
    cancel: Optional[threading.Event] = None,
    inline: bool = False,
    profile: bool = False,
) -> BatchReport:
    """Verify every spec; return results in input order.

    *jobs* bounds the persistent worker processes.  *timeout* is per job
    (wall seconds); *batch_timeout* bounds the whole run -- jobs still
    unfinished when it expires come back ``CANCELLED``.  *cancel* is an
    external kill switch with the same effect.  ``inline=True`` (or
    ``jobs <= 0``) runs everything sequentially in this process -- no
    workers, same results.  *result_cache_dir* enables verdict memoisation:
    memoised specs are answered without a worker and fresh ``PASS`` /
    ``FAIL`` outcomes are promoted write-through; canonical result bytes
    are identical either way.
    """
    tracer = ensure_tracer(obs)
    want_profile = profile or tracer.enabled
    started = time.perf_counter()
    batch_deadline = (
        None if batch_timeout is None else started + batch_timeout
    )
    with tracer.span("batch", jobs=jobs, specs=len(specs)):
        if inline or jobs <= 0:
            result_cache = open_result_cache(result_cache_dir)
            results = _run_inline(
                specs,
                cache_dir,
                want_profile,
                cancel,
                batch_deadline,
                result_cache,
                tracer,
            )
        else:
            # the server asks its workers for profiles iff its tracer is on
            server_obs = tracer if tracer.enabled else None
            if profile and server_obs is None:
                server_obs = Tracer()
            results, result_cache = _run_pooled(
                specs,
                jobs,
                timeout,
                batch_deadline,
                cache_dir,
                result_cache_dir,
                server_obs,
                cancel,
            )
        metrics = tracer.metrics
        if tracer.enabled:
            metrics.counter("batch.jobs").inc(len(results))
            for result in results:
                metrics.counter(
                    "batch.{}".format(result.verdict.lower())
                ).inc()
    wall_ms = (time.perf_counter() - started) * 1000.0
    merged = None
    if want_profile:
        member_profiles = [
            Profile.from_dict(result.profile)
            for result in results
            if result.profile is not None
        ]
        merged = merge_profiles(member_profiles)
    return BatchReport(
        results,
        wall_ms=wall_ms,
        jobs=max(jobs, 1),
        profile=merged,
        result_cache_stats=None if result_cache is None else result_cache.stats(),
    )


def _cancelled_result(index: int, spec: CheckSpec) -> JobResult:
    return failure_result(
        CANCELLED,
        "batch cancelled",
        index=index,
        check_id=spec.check_id,
        name=spec.name,
    )


def _run_inline(
    specs: Sequence[CheckSpec],
    cache_dir: Optional[str],
    want_profile: bool,
    cancel: Optional[threading.Event],
    batch_deadline: Optional[float],
    result_cache,
    tracer: Tracer,
) -> List[JobResult]:
    metrics = tracer.metrics if tracer.enabled else None
    results: List[JobResult] = []
    for index, spec in enumerate(specs):
        expired = (
            batch_deadline is not None and time.perf_counter() >= batch_deadline
        )
        if (cancel is not None and cancel.is_set()) or expired:
            results.append(_cancelled_result(index, spec))
            continue
        results.append(
            execute_cached(
                spec,
                index,
                cache_dir=cache_dir,
                profile=want_profile,
                result_cache=result_cache,
                metrics=metrics,
            )
        )
    return results


def _run_pooled(
    specs: Sequence[CheckSpec],
    jobs: int,
    timeout: Optional[float],
    batch_deadline: Optional[float],
    cache_dir: Optional[str],
    result_cache_dir: Optional[str],
    obs: Optional[Tracer],
    cancel: Optional[threading.Event],
) -> Tuple[List[JobResult], Optional[ResultCache]]:
    if not specs:
        return [], open_result_cache(result_cache_dir)
    server = VerificationServer(
        workers=min(jobs, len(specs)),
        queue_limit=len(specs),
        cache_dir=cache_dir,
        result_cache_dir=result_cache_dir,
        default_timeout=timeout,
        # the request cap guards a daemon's socket; a batch is local input
        max_request_bytes=sys.maxsize,
        obs=obs,
    ).start()
    try:
        slots: List[Union[Ticket, JobResult]] = []
        for index, spec in enumerate(specs):
            try:
                slots.append(server.submit(spec.to_doc(), index=index, block=True))
            except Rejection as rejection:
                slots.append(
                    failure_result(
                        ERROR,
                        rejection.message,
                        index=index,
                        check_id=spec.check_id,
                        name=spec.name,
                    )
                )
        results: List[JobResult] = []
        for index, (spec, slot) in enumerate(zip(specs, slots)):
            if isinstance(slot, JobResult):
                results.append(slot)
            elif _await(slot, cancel, batch_deadline):
                results.append(slot.result())
            else:
                results.append(_cancelled_result(index, spec))
    finally:
        server.close(drain=False)
    return results, server.result_cache


def _await(
    ticket: Ticket,
    cancel: Optional[threading.Event],
    batch_deadline: Optional[float],
) -> bool:
    """Wait for *ticket*; False when the batch is cancelled or expires first."""
    while not ticket.done:
        now = time.perf_counter()
        if (cancel is not None and cancel.is_set()) or (
            batch_deadline is not None and now >= batch_deadline
        ):
            return False
        wait_for = _CANCEL_POLL
        if batch_deadline is not None:
            wait_for = min(wait_for, batch_deadline - now)
        ticket.wait(wait_for)
    return True
