"""The end-to-end Fig. 1 workflow over the case-study network.

One call, :func:`run_workflow`, performs the whole toolchain of the paper:

1. **Simulate** -- run the VMG and ECU CAPL programs on the simulated CAN
   bus (the CANoe stage) and record the bus trace.
2. **Extract** -- translate the same CAPL sources into CSPm implementation
   models and compose them into a system model (the model-transformation
   stage).
3. **Check** -- discharge the SP02 integrity assertion with the refinement
   engine (the FDR stage), returning any insecure trace.
4. **Validate** -- replay the simulation's bus trace through the extracted
   model's LTS, confirming the model admits the observed behaviour (the
   soundness link between stages 1 and 2).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from ..canbus.bus import CanBus
from ..canbus.scheduler import Scheduler
from ..canbus.tracelog import TraceLog
from ..capl.interpreter import CaplNode
from ..csp.events import Event
from ..engine.pipeline import VerificationPipeline
from ..fdr.refine import CheckResult
from ..translator.network import NetworkBuilder
from ..translator.rules import ChannelConvention
from .capl_sources import ECU_FLAWED_SOURCE, ECU_SOURCE, VMG_SOURCE
from .messages import CAN_MESSAGE_SPECS


class WorkflowReport(NamedTuple):
    """Everything the Fig. 1 pipeline produces."""

    simulation_log: TraceLog
    vmg_console: Tuple[str, ...]
    composed_script: str
    check_results: Tuple[CheckResult, ...]
    simulation_trace_admitted: bool

    @property
    def all_passed(self) -> bool:
        return all(result.passed for result in self.check_results)

    def summary(self) -> str:
        lines = ["-- Fig. 1 workflow report --"]
        lines.append(
            "simulation: {} frames exchanged".format(len(self.simulation_log))
        )
        for result in self.check_results:
            lines.append(result.summary())
        lines.append(
            "simulation trace admitted by extracted model: {}".format(
                "yes" if self.simulation_trace_admitted else "NO"
            )
        )
        return "\n".join(lines)


def simulate_network(
    ecu_source: str = ECU_SOURCE,
    vmg_source: str = VMG_SOURCE,
    until_us: int = 1_000_000,
) -> Tuple[TraceLog, CaplNode, CaplNode]:
    """Stage 1: the CANoe-substitute simulation of the Fig. 2 demo system."""
    scheduler = Scheduler()
    bus = CanBus(scheduler)
    vmg = CaplNode("VMG", bus, vmg_source, CAN_MESSAGE_SPECS)
    ecu = CaplNode("ECU", bus, ecu_source, CAN_MESSAGE_SPECS)
    log = bus.simulate(until=until_us)
    return log, vmg, ecu


def extract_system(
    ecu_source: str = ECU_SOURCE,
    vmg_source: str = VMG_SOURCE,
):
    """Stage 2: model extraction and composition.

    The VMG transmits on ``send`` and receives on ``rec``; the ECU is the
    mirror image -- the paper's Sec. V-B channel convention.
    """
    builder = NetworkBuilder(include_timers=True)
    builder.add_node("VMG", vmg_source, ChannelConvention("rec", "send"))
    builder.add_node("ECU", ecu_source, ChannelConvention("send", "rec"))
    builder.add_specification("SP02", "send.reqSw -> rec.rptSw -> SP02")
    builder.add_specification(
        "SP02_LOOSE",
        "send.reqSw -> rec.rptSw -> SP02_LOOSE "
        "[] send.reqApp -> rec.rptUpd -> SP02_LOOSE",
    )
    builder.add_assertion("assert SP02_LOOSE [T= SYSTEM_DATA")
    return builder.compose()


def _simulation_events(log: TraceLog) -> List[Event]:
    """Map the bus trace onto the extracted model's events.

    The VMG transmits on ``send``, the ECU on ``rec`` (Sec. V-B convention).
    """
    events = []
    for entry in log:
        channel = "send" if entry.sender == "VMG" else "rec"
        name = entry.frame.name or "ID_0X{:X}".format(entry.frame.can_id)
        events.append(Event(channel, (name,)))
    return events


def run_workflow(
    flawed: bool = False,
    until_us: int = 1_000_000,
    max_states: int = 200_000,
) -> WorkflowReport:
    """Run the complete Fig. 1 pipeline; ``flawed=True`` seeds the defect."""
    ecu_source = ECU_FLAWED_SOURCE if flawed else ECU_SOURCE
    log, vmg, _ecu = simulate_network(ecu_source, until_us=until_us)
    composed = extract_system(ecu_source)
    model = composed.load()
    results = tuple(model.check_assertions(max_states))

    # stage 4: replay the simulated bus trace against the extracted model,
    # with timer events free to occur (they are internal to the nodes)
    system = model.process("SYSTEM_DATA" if "SYSTEM_DATA" in model.env else "SYSTEM")
    pipeline = VerificationPipeline(model.env, max_states=max_states)
    # trace admission is a trace-level question, so the composed system may
    # be walked in its compressed form (compress-before-compose)
    prepared = pipeline.plan.prepare(system, "T")
    lts = pipeline.compile(prepared.term)
    admitted = lts.walk(_simulation_events(log)) is not None

    return WorkflowReport(
        simulation_log=log,
        vmg_console=tuple(vmg.console),
        composed_script=composed.script_text,
        check_results=results,
        simulation_trace_admitted=admitted,
    )
