"""Unit tests for network composition of extracted models."""

import pytest

from repro.csp.events import event
from repro.csp.lts import compile_lts
from repro.ota.capl_sources import ECU_FLAWED_SOURCE, ECU_SOURCE, VMG_SOURCE
from repro.translator.network import NetworkBuilder
from repro.translator.rules import ChannelConvention

SIMPLE_ECU = """
variables { message rptSw m; message rptUpd u; }
on message reqSw { output(m); }
on message reqApp { output(u); }
"""

SIMPLE_VMG = """
variables { message reqSw r; }
on start { output(r); }
on message rptSw { }
"""


def two_node_builder(ecu_source=SIMPLE_ECU, vmg_source=SIMPLE_VMG):
    builder = NetworkBuilder(include_timers=True)
    builder.add_node("VMG", vmg_source, ChannelConvention("rec", "send"))
    builder.add_node("ECU", ecu_source, ChannelConvention("send", "rec"))
    return builder


class TestComposition:
    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            NetworkBuilder().compose()

    def test_shared_message_universe(self):
        composed = two_node_builder().compose()
        # one datatype line containing the union of both nodes' messages
        datatype_lines = [
            line
            for line in composed.script_text.splitlines()
            if line.startswith("datatype msgs")
        ]
        assert len(datatype_lines) == 1
        for message in ("reqSw", "rptSw", "rptUpd", "reqApp"):
            assert message in datatype_lines[0]

    def test_system_definition_synchronises_data_channels(self):
        composed = two_node_builder().compose()
        assert "SYSTEM = VMG [| {| rec, send |} |] ECU" in composed.script_text

    def test_custom_system_name(self):
        composed = two_node_builder().compose("NETWORK")
        assert "NETWORK =" in composed.script_text

    def test_composed_system_executes_exchange(self):
        composed = two_node_builder().compose()
        model = composed.load()
        lts = compile_lts(model.process("SYSTEM"), model.env)
        assert lts.walk([event("send", "reqSw"), event("rec", "rptSw")]) is not None

    def test_specifications_and_assertions_included(self):
        builder = two_node_builder()
        builder.add_specification("SPEC", "send.reqSw -> rec.rptSw -> SPEC")
        builder.assert_trace_refinement("SPEC", "SYSTEM")
        composed = builder.compose()
        assert "SPEC = send.reqSw -> rec.rptSw -> SPEC" in composed.script_text
        assert "assert SPEC [T= SYSTEM" in composed.script_text
        model = composed.load()
        (result,) = model.check_assertions()
        assert result.passed

    def test_write(self, tmp_path):
        composed = two_node_builder().compose()
        target = tmp_path / "system.csp"
        composed.write(str(target))
        assert "SYSTEM" in target.read_text()


class TestTimerHandling:
    def test_timer_declarations_shared(self):
        builder = NetworkBuilder()
        builder.add_node("VMG", VMG_SOURCE, ChannelConvention("rec", "send"))
        builder.add_node("ECU", ECU_SOURCE, ChannelConvention("send", "rec"))
        composed = builder.compose()
        assert "datatype timerIds = sessionTimer" in composed.script_text
        assert "SYSTEM_DATA = SYSTEM \\ {| timeout, setTimer, cancelTimer |}" in (
            composed.script_text
        )

    def test_paper_workflow_verdicts(self):
        """The headline reproduction: SP02-style check passes on the faithful
        ECU and fails with the insecure trace on the flawed one."""
        spec = (
            "send.reqSw -> rec.rptSw -> GOOD [] send.reqApp -> rec.rptUpd -> GOOD"
        )
        for source, expected in ((ECU_SOURCE, True), (ECU_FLAWED_SOURCE, False)):
            builder = NetworkBuilder()
            builder.add_node("VMG", VMG_SOURCE, ChannelConvention("rec", "send"))
            builder.add_node("ECU", source, ChannelConvention("send", "rec"))
            builder.add_specification("GOOD", spec)
            builder.add_assertion("assert GOOD [T= SYSTEM_DATA")
            model = builder.compose().load()
            (result,) = model.check_assertions()
            assert result.passed == expected


class TestDefaultConventions:
    def test_second_node_gets_swapped_convention(self):
        builder = NetworkBuilder()
        builder.add_node("A", SIMPLE_VMG)
        builder.add_node("B", SIMPLE_ECU)
        composed = builder.compose()
        # node A transmits on rec's counterpart ('send' in-channel default);
        # both data channels appear exactly once in the declaration
        assert "channel send, rec : msgs" in composed.script_text
