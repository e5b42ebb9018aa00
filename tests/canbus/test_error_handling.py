"""Tests for error frames and bus-off (the CAN failure modes CAPL handles)."""

from repro.canbus.bus import CanBus
from repro.canbus.frame import CanFrame
from repro.canbus.scheduler import Scheduler
from repro.capl.interpreter import CaplNode, MessageSpec


def make_bus():
    scheduler = Scheduler()
    return CanBus(scheduler), scheduler


class TestErrorFrames:
    def test_error_frame_reaches_all_nodes(self):
        bus, _ = make_bus()
        node = CaplNode(
            "N",
            bus,
            "variables { int errors = 0; }\non errorFrame { errors++; }",
        )
        bus.inject_error_frame()
        bus.inject_error_frame()
        assert node.globals["errors"] == 2

    def test_error_frames_not_in_message_log(self):
        bus, _ = make_bus()
        CaplNode("N", bus, "on errorFrame { }")
        bus.inject_error_frame()
        assert len(bus.log) == 0

    def test_nodes_without_handler_unaffected(self):
        bus, _ = make_bus()
        CaplNode("N", bus, "variables { int x = 0; }")
        bus.inject_error_frame()  # must not raise


class TestBusOff:
    def test_bus_off_detaches_and_notifies(self):
        bus, _ = make_bus()
        victim = CaplNode(
            "VICTIM",
            bus,
            "variables { int dead = 0; }\non busOff { dead = 1; }",
        )
        bus.force_bus_off(victim)
        assert victim.globals["dead"] == 1
        assert victim not in bus.nodes

    def test_bus_off_node_stops_receiving(self):
        bus, _ = make_bus()
        specs = {"ping": MessageSpec(0x100, 1)}
        victim = CaplNode(
            "VICTIM",
            bus,
            "variables { int got = 0; }\non message ping { got++; }",
            specs,
        )
        sender = CaplNode(
            "SENDER",
            bus,
            "variables { message ping p; }\non start { output(p); }",
            specs,
        )
        bus.force_bus_off(victim)
        bus.simulate(until=100_000)
        assert victim.globals["got"] == 0

    def test_double_bus_off_is_noop(self):
        bus, _ = make_bus()
        victim = CaplNode("V", bus, "variables { int n = 0; }\non busOff { n++; }")
        bus.force_bus_off(victim)
        bus.force_bus_off(victim)
        assert victim.globals["n"] == 1


class TestBusOffAttackScenario:
    def test_silencing_the_ecu_stalls_the_update_session(self):
        """The wire-level counterpart of the interrupt-operator analysis:
        bus-off the ECU mid-session and the VMG never gets its result."""
        from repro.ota.capl_sources import ECU_SOURCE, VMG_SOURCE
        from repro.ota.messages import CAN_MESSAGE_SPECS

        bus, scheduler = make_bus()
        vmg = CaplNode("VMG", bus, VMG_SOURCE, CAN_MESSAGE_SPECS)
        ecu = CaplNode("ECU", bus, ECU_SOURCE, CAN_MESSAGE_SPECS)
        # the attack fires just after the inventory exchange (the session
        # timer fires at 10 ms; rptSw is on the wire by ~10.25 ms)
        scheduler.after(10_250, lambda: bus.force_bus_off(ecu))
        log = bus.simulate(until=1_000_000)
        names = log.names()
        assert "rptUpd" not in names  # the update result never arrives
        assert all("update result" not in line for line in vmg.console)
