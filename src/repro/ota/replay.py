"""Replaying checker counterexamples on the simulated bus.

The paper's workflow feeds counterexamples "back to software designers to
review and rectify faults".  This module closes that loop mechanically: it
takes an insecure trace from the refinement checker (events on the VMG's
``send`` channel and the ECU's ``rec`` channel) and drives the *actual* CAPL
program on the simulated CAN bus with the same stimuli, reporting whether
the wire behaviour confirms the finding.

Because extracted models over-approximate data state (conditionals become
choices), a counterexample may not replay directly from the initial state;
:func:`find_witness` then searches for a short setup sequence of requests
that steers the program into the state where the insecure response really
occurs -- distinguishing a *confirmed* defect from an abstraction artefact.
"""

from __future__ import annotations

from itertools import chain, permutations
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..canbus.bus import CanBus
from ..canbus.frame import CanFrame
from ..canbus.node import ScriptedNode
from ..canbus.scheduler import Scheduler
from ..canbus.tracelog import TraceLog
from ..capl.interpreter import CaplNode
from ..csp.events import Event
from .messages import CAN_MESSAGE_SPECS

#: microseconds between successive injected stimuli (enough for replies)
STIMULUS_SPACING_US = 20_000


class ReplayOutcome(NamedTuple):
    """The verdict of replaying a counterexample on the wire."""

    confirmed: bool
    #: the request names injected before the counterexample's stimuli
    setup: Tuple[str, ...]
    #: what the ECU actually transmitted, in order
    observed_responses: Tuple[str, ...]
    #: the responses the counterexample predicted
    expected_responses: Tuple[str, ...]
    log: TraceLog

    def describe(self) -> str:
        if self.confirmed:
            prefix = (
                "confirmed on the bus"
                if not self.setup
                else "confirmed on the bus after setup {}".format(list(self.setup))
            )
            return "{}: observed {}".format(prefix, list(self.observed_responses))
        return (
            "not reproduced from this state (possible abstraction artefact): "
            "expected {}, observed {}".format(
                list(self.expected_responses), list(self.observed_responses)
            )
        )


def split_counterexample(trace: Sequence[Event]) -> Tuple[List[str], List[str]]:
    """Separate a violating trace into VMG stimuli and expected ECU responses.

    Uses the paper's channel convention: ``send.X`` is VMG->ECU (a stimulus
    we must inject), ``rec.X`` is ECU->VMG (a response we expect to observe).
    Timer events and other channels are ignored -- they are node-internal.
    """
    stimuli: List[str] = []
    responses: List[str] = []
    for event in trace:
        if event.channel == "send" and event.fields:
            stimuli.append(str(event.fields[0]))
        elif event.channel == "rec" and event.fields:
            responses.append(str(event.fields[0]))
    return stimuli, responses


def _frame_for(message_name: str) -> CanFrame:
    spec = CAN_MESSAGE_SPECS.get(message_name)
    if spec is None:
        raise ValueError(
            "no CAN identity for message {!r}; known: {}".format(
                message_name, sorted(CAN_MESSAGE_SPECS)
            )
        )
    return CanFrame(spec.can_id, [0] * spec.dlc, name=message_name)


def _drive(ecu_source: str, requests: Sequence[str]) -> TraceLog:
    """Inject the requests in order against a fresh ECU; return the bus log."""
    scheduler = Scheduler()
    bus = CanBus(scheduler)
    CaplNode("ECU", bus, ecu_source, CAN_MESSAGE_SPECS)
    schedule = [
        ((index + 1) * STIMULUS_SPACING_US, _frame_for(name))
        for index, name in enumerate(requests)
    ]
    ScriptedNode("VMG_REPLAY", bus, schedule)
    bus.simulate(until=(len(requests) + 2) * STIMULUS_SPACING_US)
    return bus.log


def _ecu_responses(log: TraceLog) -> List[str]:
    return [
        entry.frame.name or "0x{:X}".format(entry.frame.can_id)
        for entry in log
        if entry.sender == "ECU"
    ]


def replay_insecure_trace(
    trace: Sequence[Event],
    ecu_source: str,
    setup: Sequence[str] = (),
) -> ReplayOutcome:
    """Drive the ECU with the counterexample's stimuli and compare responses.

    *setup* requests are injected first (state preparation); the
    counterexample is confirmed if, after the setup's own responses, the
    observed response sequence matches the expected one.
    """
    stimuli, expected = split_counterexample(trace)
    log = _drive(ecu_source, list(setup) + stimuli)
    observed = _ecu_responses(log)
    # responses caused by the setup requests come first; compare the tail
    tail = observed[len(observed) - len(expected):] if expected else []
    confirmed = bool(expected) and tail == expected
    return ReplayOutcome(
        confirmed=confirmed,
        setup=tuple(setup),
        observed_responses=tuple(observed),
        expected_responses=tuple(expected),
        log=log,
    )


def find_witness(
    trace: Sequence[Event],
    ecu_source: str,
    setup_candidates: Iterable[str] = ("reqSw", "reqApp"),
    max_setup_length: int = 2,
) -> ReplayOutcome:
    """Search for a setup sequence under which the counterexample replays.

    Tries the empty setup first, then every ordered selection of candidate
    requests up to *max_setup_length*.  Returns the first confirming
    outcome, or the direct (unconfirmed) outcome if none replays.
    """
    direct = replay_insecure_trace(trace, ecu_source)
    if direct.confirmed:
        return direct
    candidates = list(setup_candidates)
    for length in range(1, max_setup_length + 1):
        for setup in permutations(candidates, length):
            outcome = replay_insecure_trace(trace, ecu_source, setup)
            if outcome.confirmed:
                return outcome
    # also try repeated single candidates (permutations exclude repeats)
    for candidate in candidates:
        for length in range(2, max_setup_length + 1):
            outcome = replay_insecure_trace(trace, ecu_source, (candidate,) * length)
            if outcome.confirmed:
                return outcome
    return direct
