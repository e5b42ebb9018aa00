"""Test-sequence generation from CSP models.

The paper's aim is "to enable systematic security testing of ECU
components" (abstract, Sec. I).  Model checking is one half; the other is
deriving *executable test suites* from the same formal models.  This module
implements the classic automata-based generators over the checker's
normalised (deterministic, tau-free) view of a specification:

* :func:`state_cover`      -- a shortest trace reaching every state,
* :func:`transition_cover` -- a test per transition (its source's access
  trace extended by the transition), the W-method's core ingredient,
* :func:`bounded_traces`   -- exhaustive traces to a depth (for small specs).

Each test is a trace of the specification; running it against an
implementation and checking the observed behaviour is conformance testing
(:mod:`repro.testgen.conformance`).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..csp.events import Event
from ..csp.kernel import CompactLTS
from ..csp.process import Environment, Process
from ..fdr.normalise import NodeId, NormalisedSpec, normalise

Trace = Tuple[Event, ...]


def _normalised(model, env: Optional[Environment]) -> NormalisedSpec:
    if isinstance(model, NormalisedSpec):
        return model
    if isinstance(model, CompactLTS):
        return normalise(model)
    if isinstance(model, Process):
        from ..engine.pipeline import VerificationPipeline, shared_cache

        pipeline = VerificationPipeline(
            env or Environment(), cache=shared_cache()
        )
        return pipeline.normalised(model)
    raise TypeError("expected a Process, LTS or NormalisedSpec")


def state_cover(model, env: Optional[Environment] = None) -> Dict[NodeId, Trace]:
    """A shortest visible trace reaching each state of the normalised model."""
    spec = _normalised(model, env)
    access: Dict[NodeId, Trace] = {spec.initial: ()}
    work: deque = deque([spec.initial])
    while work:
        node = work.popleft()
        for event, target in sorted(spec.afters[node].items(), key=lambda kv: str(kv[0])):
            if target not in access and not event.is_tick():
                access[target] = access[node] + (event,)
                work.append(target)
            elif target not in access:
                access[target] = access[node] + (event,)
    return access


def transition_cover(model, env: Optional[Environment] = None) -> List[Trace]:
    """One test per transition of the normalised model.

    Every transition ``node --e--> target`` yields the test
    ``access(node) + <e>``; tests that are prefixes of other tests are
    dropped (the longer test exercises them anyway).  The result is sorted
    longest-first for deterministic output.
    """
    spec = _normalised(model, env)
    access = state_cover(spec)
    tests = set()
    for node, trace in access.items():
        for event in spec.afters[node]:
            tests.add(trace + (event,))
    # drop proper prefixes of other tests
    kept: List[Trace] = []
    for test in sorted(tests, key=len, reverse=True):
        if not any(existing[: len(test)] == test for existing in kept):
            kept.append(test)
    kept.sort(key=lambda t: (len(t), tuple(str(e) for e in t)))
    return kept


def bounded_traces(
    model, depth: int, env: Optional[Environment] = None
) -> List[Trace]:
    """Every trace of the model up to *depth* events (exhaustive testing)."""
    spec = _normalised(model, env)
    results: List[Trace] = []
    frontier: List[Tuple[Trace, NodeId]] = [((), spec.initial)]
    for _ in range(depth):
        next_frontier: List[Tuple[Trace, NodeId]] = []
        for trace, node in frontier:
            for event, target in sorted(
                spec.afters[node].items(), key=lambda kv: str(kv[0])
            ):
                extended = trace + (event,)
                results.append(extended)
                if not event.is_tick():
                    next_frontier.append((extended, target))
        frontier = next_frontier
    return results


def coverage_of(
    tests: List[Trace], model, env: Optional[Environment] = None
) -> Tuple[int, int]:
    """(transitions exercised, transitions total) for a test suite."""
    spec = _normalised(model, env)
    total = sum(len(spec.afters[node]) for node in range(spec.node_count))
    covered = set()
    for test in tests:
        node = spec.initial
        for event in test:
            target = spec.after(node, event)
            if target is None:
                break
            covered.add((node, event))
            node = target
    return len(covered), total
