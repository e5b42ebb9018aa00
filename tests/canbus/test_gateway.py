"""Tests for multi-bus topologies with gateway nodes."""

import pytest

from repro.canbus.bus import CanBus
from repro.canbus.frame import CanFrame
from repro.canbus.gateway import GatewayNode, forward_ids, forward_range
from repro.canbus.node import CanNode, ScriptedNode
from repro.canbus.scheduler import Scheduler


class Recorder(CanNode):
    def __init__(self, name, bus):
        super().__init__(name, bus)
        self.heard = []

    def on_message(self, frame):
        self.heard.append(frame)


def two_segments():
    scheduler = Scheduler()
    body = CanBus(scheduler, name="BODY")
    powertrain = CanBus(scheduler, name="PT")
    return scheduler, body, powertrain


class TestRouting:
    def test_forwarding_between_segments(self):
        scheduler, body, powertrain = two_segments()
        gateway = GatewayNode("GW").attach(body).attach(powertrain)
        gateway.add_route(body, powertrain, forward_ids(0x100))
        ScriptedNode("SRC", body, [(10, CanFrame(0x100, [1]))])
        sink = Recorder("SINK", powertrain)
        body.start()
        powertrain.start()
        scheduler.run()
        assert [f.can_id for f in sink.heard] == [0x100]
        assert len(gateway.forwarded) == 1

    def test_firewall_drops_unrouted_frames(self):
        scheduler, body, powertrain = two_segments()
        gateway = GatewayNode("GW").attach(body).attach(powertrain)
        gateway.add_route(body, powertrain, forward_ids(0x100))
        ScriptedNode("SRC", body, [(10, CanFrame(0x200))])
        sink = Recorder("SINK", powertrain)
        body.start()
        scheduler.run()
        assert sink.heard == []
        assert [f.can_id for f in gateway.dropped] == [0x200]

    def test_range_predicate(self):
        scheduler, body, powertrain = two_segments()
        gateway = GatewayNode("GW").attach(body).attach(powertrain)
        gateway.add_route(body, powertrain, forward_range(0x100, 0x1FF))
        ScriptedNode("SRC", body, [(10, CanFrame(0x150)), (20, CanFrame(0x300))])
        sink = Recorder("SINK", powertrain)
        body.start()
        scheduler.run()
        assert [f.can_id for f in sink.heard] == [0x150]

    def test_id_remapping(self):
        scheduler, body, powertrain = two_segments()
        gateway = GatewayNode("GW").attach(body).attach(powertrain)
        gateway.add_route(
            body, powertrain, forward_ids(0x100), remap_id=lambda i: i + 0x400
        )
        ScriptedNode("SRC", body, [(10, CanFrame(0x100, [7], name="sig"))])
        sink = Recorder("SINK", powertrain)
        body.start()
        scheduler.run()
        (frame,) = sink.heard
        assert frame.can_id == 0x500
        assert frame.byte(0) == 7 and frame.name == "sig"

    def test_bidirectional_routes_do_not_storm(self):
        scheduler, body, powertrain = two_segments()
        gateway = GatewayNode("GW").attach(body).attach(powertrain)
        gateway.add_route(body, powertrain, lambda f: True)
        gateway.add_route(powertrain, body, lambda f: True)
        ScriptedNode("SRC", body, [(10, CanFrame(0x100))])
        Recorder("S1", powertrain)
        body.start()
        executed = scheduler.run(max_events=10_000)
        assert executed < 10_000  # the loop guard stops the ping-pong
        assert len(gateway.forwarded) == 1


class TestConfigurationErrors:
    def test_double_attach_rejected(self):
        _s, body, _p = two_segments()
        gateway = GatewayNode("GW").attach(body)
        with pytest.raises(ValueError):
            gateway.attach(body)

    def test_route_requires_attachment(self):
        _s, body, powertrain = two_segments()
        gateway = GatewayNode("GW").attach(body)
        with pytest.raises(ValueError):
            gateway.add_route(body, powertrain, forward_ids(1))

    def test_self_route_rejected(self):
        _s, body, powertrain = two_segments()
        gateway = GatewayNode("GW").attach(body).attach(powertrain)
        with pytest.raises(ValueError):
            gateway.add_route(body, body, forward_ids(1))


class TestDomainIsolationScenario:
    def test_infotainment_attacker_cannot_reach_powertrain(self):
        """The firewall role: spoofed diagnostic frames from the exposed
        segment are not forwarded, while legitimate status traffic is."""
        from repro.capl.interpreter import CaplNode, MessageSpec

        scheduler, infotainment, powertrain = two_segments()
        gateway = GatewayNode("GW").attach(infotainment).attach(powertrain)
        # policy: only the 0x5xx status range crosses into powertrain
        gateway.add_route(infotainment, powertrain, forward_range(0x500, 0x5FF))

        ecu = CaplNode(
            "ENGINE",
            powertrain,
            "variables { int torqueRequests = 0; int statusSeen = 0; }\n"
            "on message 0x101 { torqueRequests++; }\n"
            "on message 0x501 { statusSeen++; }",
        )
        ScriptedNode(
            "ATTACKER",
            infotainment,
            [(10, CanFrame(0x101, [0xFF])), (20, CanFrame(0x501, [1]))],
        )
        infotainment.start()
        powertrain.start()
        scheduler.run()
        assert ecu.globals["torqueRequests"] == 0  # firewalled
        assert ecu.globals["statusSeen"] == 1      # legitimate route open
