"""Denotational stable-failures semantics (bounded).

The trace model (paper Sec. IV-A2) is validated by implementing its
equations independently of the operational semantics; this module does the
same for the *stable failures* model that backs the checker's ``[F=``
refinement.  A failure is a pair ``(s, X)``: after trace *s* the process can
stably refuse every event in *X*.

The standard equations (Roscoe, *Understanding Concurrent Systems*) are
implemented over an explicit finite alphabet, bounded by trace length, for
the recursion-free operators -- enough to cross-check the refinement engine
on randomly generated processes (see ``tests/fdr/test_failures_property.py``).

Refusal sets are subsets of ``Sigma ∪ {✓}``; with the small alphabets used
in testing the powerset stays tiny.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from .events import Alphabet, Event, TICK
from .kernel import CompactLTS
from .process import (
    Environment,
    ExternalChoice,
    GenParallel,
    Hiding,
    Interleave,
    InternalChoice,
    Omega,
    Prefix,
    Process,
    ProcessRef,
    SeqComp,
    Skip,
    Stop,
)
from .traces import (
    Trace,
    denotational_traces,
    is_terminated,
    merge_traces,
    strip_tick,
)

Failure = Tuple[Trace, FrozenSet[Event]]


def _powerset(events: Iterable[Event]) -> Tuple[FrozenSet[Event], ...]:
    items = list(events)
    return tuple(
        frozenset(subset)
        for size in range(len(items) + 1)
        for subset in combinations(items, size)
    )


def denotational_failures(
    process: Process,
    sigma: Alphabet,
    env: Optional[Environment] = None,
    max_length: int = 4,
) -> Set[Failure]:
    """Bounded stable failures of *process* over the alphabet *sigma*.

    Implements the textbook equations for the recursion-free fragment
    (recursion through ``ProcessRef`` is unfolded like in the trace
    semantics; guarded definitions terminate under the length bound).
    """
    env = env or Environment()
    sigma_events = list(sigma)
    sigma_tick = sigma_events + [TICK]
    refusals_all = _powerset(sigma_tick)
    refusals_sans_tick = tuple(r for r in refusals_all if TICK not in r)

    def close_down(failures: Set[Failure]) -> Set[Failure]:
        """Refusing X implies refusing every subset of X."""
        closed: Set[Failure] = set()
        for trace, refusal in failures:
            for subset in refusals_all:
                if subset <= refusal:
                    closed.add((trace, subset))
        return closed

    def go(term: Process, budget: int) -> Set[Failure]:
        if isinstance(term, (Stop, Omega)):
            return {((), refusal) for refusal in refusals_all}
        if isinstance(term, Skip):
            failures: Set[Failure] = {
                ((), refusal) for refusal in refusals_sans_tick
            }
            if budget >= 1:
                failures |= {((TICK,), refusal) for refusal in refusals_all}
            return failures
        if isinstance(term, Prefix):
            failures = {
                ((), refusal)
                for refusal in refusals_all
                if term.event not in refusal
            }
            if budget >= 1:
                for trace, refusal in go(term.continuation, budget - 1):
                    extended = (term.event,) + trace
                    if len(extended) <= budget:
                        failures.add((extended, refusal))
            return failures
        if isinstance(term, ExternalChoice):
            left = go(term.left, budget)
            right = go(term.right, budget)
            failures = set()
            # at <> both sides must refuse jointly
            left_empty = {refusal for trace, refusal in left if trace == ()}
            right_empty = {refusal for trace, refusal in right if trace == ()}
            failures |= {((), refusal) for refusal in left_empty & right_empty}
            # after the first event either side's failures apply
            failures |= {
                (trace, refusal)
                for trace, refusal in left | right
                if trace != ()
            }
            # NOTE: tick is treated as an ordinary resolving event (the same
            # convention as the operational semantics and the parallel
            # operator's sync-on-tick); Roscoe's special SKIP-in-choice rule
            # is deliberately not applied, so a choice offering termination
            # cannot stably refuse tick at <>
            return failures
        if isinstance(term, InternalChoice):
            return go(term.left, budget) | go(term.right, budget)
        if isinstance(term, SeqComp):
            first = go(term.first, budget)
            first_traces = denotational_traces(term.first, env, budget)
            failures = set()
            for trace, refusal in first:
                # unterminated behaviour of P1: refusal must also cover tick
                # (the tick is internalised, so it cannot be relied on)
                if not is_terminated(trace):
                    if (trace, refusal | {TICK}) in first:
                        failures.add((trace, refusal))
            for trace in first_traces:
                if is_terminated(trace):
                    stem = strip_tick(trace)
                    for tail, refusal in go(term.second, budget - len(stem)):
                        combined = stem + tail
                        if len(combined) <= budget:
                            failures.add((combined, refusal))
            return failures
        if isinstance(term, (GenParallel, Interleave)):
            sync = term.sync if isinstance(term, GenParallel) else Alphabet()
            left = go(term.left, budget)
            right = go(term.right, budget)
            failures = set()
            sync_tick = set(sync) | {TICK}
            for ltrace, lrefusal in left:
                for rtrace, rrefusal in right:
                    # free (non-sync) refusals must agree
                    if (lrefusal - sync_tick) != (rrefusal - sync_tick):
                        continue
                    refusal = lrefusal | rrefusal
                    for merged in merge_traces(ltrace, rtrace, sync):
                        if len(merged) > budget:
                            continue
                        # only complete merges of both traces carry the
                        # refusal information
                        if _is_complete_merge(merged, ltrace, rtrace, sync):
                            failures.add((merged, refusal))
            return failures
        if isinstance(term, Hiding):
            # failures(P \ A) = {(s\A, X) | (s, X ∪ A) ∈ failures(P)}:
            # a state of the hidden process is stable only if it refuses
            # every hidden event too
            hidden = frozenset(term.hidden)
            inner = go(term.process, budget + 2 * budget + 8)
            failures = set()
            for trace, refusal in inner:
                if hidden <= refusal:
                    visible = tuple(e for e in trace if e not in hidden)
                    if len(visible) <= budget:
                        # hidden events stay refusable after hiding (they can
                        # never be performed)
                        failures.add((visible, refusal))
            # hiding breaks downward closure (only refusals containing the
            # whole hidden set were kept); restore it before composing
            return close_down(failures)
        if isinstance(term, ProcessRef):
            return go(env.resolve(term.name), budget)
        raise TypeError(
            "denotational failures not defined for {!r}".format(
                type(term).__name__
            )
        )

    result = close_down(go(process, max_length))
    return {
        (trace, refusal) for trace, refusal in result if len(trace) <= max_length
    }


def _is_complete_merge(
    merged: Trace, left: Trace, right: Trace, sync: Alphabet
) -> bool:
    """True if *merged* consumes all of both traces (not a proper prefix)."""

    def in_sync(event: Event) -> bool:
        return event.is_tick() or event in sync

    free_left = sum(1 for e in left if not in_sync(e))
    free_right = sum(1 for e in right if not in_sync(e))
    sync_left = [e for e in left if in_sync(e)]
    sync_right = [e for e in right if in_sync(e)]
    if sync_left != sync_right:
        return False  # cannot complete at all
    expected = free_left + free_right + len(sync_left)
    return len(merged) == expected


def lts_failures(
    lts: CompactLTS, sigma: Alphabet, max_length: int = 4
) -> Set[Failure]:
    """The stable failures the operational semantics exhibits, bounded.

    For every visible trace up to the bound: each *stable* state reachable
    after it contributes the refusals disjoint from its offer set.  Refusal
    sets are int bitsets over the LTS's interned event ids internally and
    only decoded to event sets at the end.
    """
    from .events import TAU_ID, TICK_ID

    table = lts.table
    sigma_ids = [table.intern(event) for event in sigma] + [TICK_ID]
    refusal_bits_all = tuple(
        sum(1 << sigma_ids[i] for i in positions)
        for size in range(len(sigma_ids) + 1)
        for positions in combinations(range(len(sigma_ids)), size)
    )
    failures_bits: Set[Tuple[Trace, int]] = set()

    start = lts.tau_closure(frozenset([lts.initial]))
    frontier = [((), start)]
    seen_traces = set()
    while frontier:
        next_frontier = []
        for trace, states in frontier:
            if trace in seen_traces:
                continue
            seen_traces.add(trace)
            for state in states:
                if not lts.is_stable(state):
                    continue
                offered = 0
                for eid, _t in lts.successors_ids(state):
                    offered |= 1 << eid
                for refusal in refusal_bits_all:
                    if not (refusal & offered):
                        failures_bits.add((trace, refusal))
            if len(trace) >= max_length:
                continue
            by_event = {}
            for state in states:
                for eid, target in lts.successors_ids(state):
                    if eid == TAU_ID:
                        continue
                    by_event.setdefault(eid, set()).add(target)
            for eid, targets in by_event.items():
                extended = trace + (table.event_of(eid),)
                if eid == TICK_ID:
                    # post-termination state: terminated, refuses everything
                    for refusal in refusal_bits_all:
                        failures_bits.add((extended, refusal))
                else:
                    next_frontier.append(
                        (extended, lts.tau_closure(frozenset(targets)))
                    )
        frontier = next_frontier
    decoded: Dict[int, FrozenSet[Event]] = {}
    failures: Set[Failure] = set()
    for trace, bits in failures_bits:
        refusal = decoded.get(bits)
        if refusal is None:
            refusal = table.decode_bits(bits)
            decoded[bits] = refusal
        failures.add((trace, refusal))
    return failures
