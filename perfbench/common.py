"""Shared machinery of the benchmark: clocks, spans, statistics, output.

Every workload module builds on these helpers; none of them touches the
program under test beyond the public ``repro.obs`` tracer API.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: the checkout the benchmark runs in (the parent of this directory)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: everything a run writes lives below here (listed in the root .gitignore)
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


#: seconds :func:`calibrate` takes at the reference speed that end-to-end
#: times are reported at
CALIBRATION_REF_S = 0.015


class _Cell:
    __slots__ = ("key", "text")

    def __init__(self, key: int, text: str) -> None:
        self.key = key
        self.text = text


def calibrate() -> float:
    """Seconds one fixed, allocation-heavy pure-Python task takes right now.

    The speed of the machine drifts by tens of percent within minutes when
    other tenants load it.  A run times this task before every iteration
    and scales the iteration's times by ``CALIBRATION_REF_S`` over the
    task's time, which cancels the drift.  The task shares no code with
    the program under test and runs with the garbage collector off, so
    nothing the program does to its own heap or collector settings can
    change it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _round in range(6):
            cells = [_Cell(i, str(i)) for i in range(4000)]
            index = {(cell.key, cell.text): cell for cell in cells}
            order = sorted(index, key=lambda key: (key[1], key[0]))
            kept = frozenset(key for key, _text in order[::3])
            sum(1 for cell in cells if cell.key in kept)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class PinnedClock:
    """``time.perf_counter`` unless a reading is pinned.

    The tracer takes its clock at construction, so pinning lets the
    benchmark record spans whose ends were measured elsewhere -- in a
    child process, on the same system-wide monotonic clock -- through the
    public span API.
    """

    def __init__(self) -> None:
        self.pinned: Optional[float] = None

    def __call__(self) -> float:
        return time.perf_counter() if self.pinned is None else self.pinned


def replay_span(tracer, clock: PinnedClock, name: str, start: float, end: float,
                children: Sequence[tuple] = (), **tags) -> None:
    """Record a span measured elsewhere, with nested ``(name, start, end,
    children)`` tuples; the caller unpins the clock afterwards."""
    clock.pinned = start
    with tracer.span(name, **tags):
        for child in children:
            replay_span(tracer, clock, *child)
        clock.pinned = end


def graft(target, clock: PinnedClock, source) -> None:
    """Re-record every span and counter of tracer *source* in *target*.

    Each traced pass records into a fresh tracer, because the engine folds
    a per-check profile out of the whole tracer it is handed; the passes
    are then merged into one trace for export.
    """
    children: Dict[Optional[int], list] = {}
    for span in source.spans:
        children.setdefault(span.parent_id, []).append(span)

    def copy(span) -> None:
        clock.pinned = span.start
        with target.span(span.name, **span.tags):
            for child in children.get(span.span_id, ()):
                copy(child)
            clock.pinned = span.end

    for root in children.get(None, ()):
        copy(root)
    clock.pinned = None
    for record in source.metrics.records():
        if record["type"] == "counter":
            target.metrics.counter(record["name"]).inc(record["value"])
        elif record["type"] == "gauge":
            target.metrics.gauge(record["name"]).set_max(record["max"])


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest waited child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def self_times(spans, keep=None) -> Dict[str, float]:
    """Exclusive milliseconds per span name.

    With *keep*, only spans for which ``keep(span, ancestors)`` holds are
    counted, where *ancestors* lists the span's enclosing spans innermost
    first.
    """
    by_id = {span.span_id: span for span in spans}
    child_ms: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_ms[span.parent_id] = child_ms.get(span.parent_id, 0.0) + span.duration_ms
    totals: Dict[str, float] = {}
    for span in spans:
        if keep is not None:
            ancestors = []
            cursor = by_id.get(span.parent_id)
            while cursor is not None:
                ancestors.append(cursor)
                cursor = by_id.get(cursor.parent_id)
            if not keep(span, ancestors):
                continue
        exclusive = span.duration_ms - child_ms.get(span.span_id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + exclusive
    return totals


def within(tag: str, value) -> Callable[[object, list], bool]:
    """A :func:`self_times` filter: spans inside one tagged enclosing span."""

    def keep(span, ancestors) -> bool:
        return any(a.tags.get(tag) == value for a in [span] + ancestors)

    return keep


def sum_of(times: Dict[str, float], names: Iterable[str]) -> float:
    return sum(times.get(name, 0.0) for name in names)


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)
        return ok


def result_line(correct: bool, tally: Tally,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
        sort_keys=True,
    )
