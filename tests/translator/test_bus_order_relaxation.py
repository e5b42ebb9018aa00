"""Transmit-queue arbitration widening (the extraction soundness fix).

``output()`` queues a frame; the CAN bus drains the queue by arbitration
(lowest id wins), not in program order.  A handler that queues several
frames can therefore emit them in an order its program text never wrote,
and the extracted model must admit every such order.  These tests pin the
exact repeated-output pattern the property-based suite first caught:

    output(msg_rspX); output(msg_rspY); output(msg_rspX);

where rspX (0x301) out-arbitrates rspY (0x302), so the bus shows
rspX rspX rspY while the program order is rspX rspY rspX.
"""

from repro.canbus.bus import CanBus
from repro.canbus.frame import CanFrame
from repro.canbus.scheduler import Scheduler
from repro.capl.interpreter import CaplNode, MessageSpec
from repro.csp.events import Event
from repro.csp.lts import compile_lts
from repro.translator.extractor import ModelExtractor
from repro.translator.rules import (
    Act,
    Choice,
    Empty,
    Loop,
    Output,
    Seq,
    SetTimer,
    relax_bus_order,
)

SPECS = {
    "reqA": MessageSpec(0x201, 1),
    "rspX": MessageSpec(0x301, 1),
    "rspY": MessageSpec(0x302, 1),
}

SOURCE = "\n".join(
    [
        "variables {",
        "  message rspX msg_rspX;",
        "  message rspY msg_rspY;",
        "}",
        "on message reqA { output(msg_rspX); output(msg_rspY); output(msg_rspX); }",
    ]
)


def _simulate(source, request):
    scheduler = Scheduler()
    bus = CanBus(scheduler)
    node = CaplNode("ECU", bus, source, SPECS)
    spec = SPECS[request]
    node.deliver(CanFrame(spec.can_id, [0] * spec.dlc, name=request))
    scheduler.run()
    trace = [Event("send", (request,))]
    trace.extend(Event("rec", (entry.frame.name,)) for entry in bus.log.entries)
    return trace


def _extracted_lts(source):
    result = ModelExtractor().extract(source, "ECU")
    model = result.load()
    return compile_lts(model.process("ECU"), model.env, max_states=100_000)


def test_model_admits_arbitrated_bus_order():
    lts = _extracted_lts(SOURCE)
    trace = _simulate(SOURCE, "reqA")
    # the bus really does reorder: rspX out-arbitrates the queued rspY
    assert [str(e) for e in trace] == ["send.reqA", "rec.rspX", "rec.rspX", "rec.rspY"]
    assert lts.walk(trace) is not None


def test_model_still_admits_program_order():
    lts = _extracted_lts(SOURCE)
    program_order = [
        Event("send", ("reqA",)),
        Event("rec", ("rspX",)),
        Event("rec", ("rspY",)),
        Event("rec", ("rspX",)),
    ]
    assert lts.walk(program_order) is not None


def test_single_output_handlers_are_untouched():
    behaviour = Seq([Act(SetTimer("t")), Act(Output("rspX"))])
    assert relax_bus_order(behaviour) is behaviour


def test_single_output_per_branch_is_untouched():
    behaviour = Choice([Act(Output("rspX")), Act(Output("rspY"))])
    assert relax_bus_order(behaviour) is behaviour


def test_two_outputs_widen_to_both_orders():
    behaviour = Seq([Act(Output("rspX")), Act(Output("rspY"))])
    widened = relax_bus_order(behaviour)
    assert isinstance(widened, Choice)
    orders = {
        tuple(action.message for action in branch.actions())
        for branch in widened.branches
    }
    assert orders == {("rspX", "rspY"), ("rspY", "rspX")}


def test_non_output_actions_keep_their_positions():
    behaviour = Seq(
        [Act(Output("rspX")), Act(SetTimer("t")), Act(Output("rspY"))]
    )
    widened = relax_bus_order(behaviour)
    assert isinstance(widened, Choice)
    for branch in widened.branches:
        assert isinstance(branch.items[1].action, SetTimer)


def test_transmitting_loop_falls_back_to_any_order():
    behaviour = Seq([Act(Output("rspX")), Loop(Act(Output("rspY")))])
    widened = relax_bus_order(behaviour)
    assert isinstance(widened, Loop)
    messages = {action.message for action in widened.actions()}
    assert messages == {"rspX", "rspY"}


def test_empty_behaviour_is_untouched():
    behaviour = Empty()
    assert relax_bus_order(behaviour) is behaviour
