"""Unit tests for the CAPL interpreter running on the simulated bus."""

import pytest

from repro.canbus.bus import CanBus
from repro.canbus.frame import CanFrame
from repro.canbus.scheduler import Scheduler
from repro.capl.builtins import CaplRuntimeError
from repro.capl.interpreter import CaplNode, MessageSpec

SPECS = {
    "reqSw": MessageSpec(0x101, 1),
    "rptSw": MessageSpec(0x102, 1),
    "ping": MessageSpec(0x200, 2),
    "pong": MessageSpec(0x201, 2),
}


def make_node(source, name="N1", specs=SPECS):
    scheduler = Scheduler()
    bus = CanBus(scheduler)
    node = CaplNode(name, bus, source, specs)
    return node, bus


class TestVariables:
    def test_scalar_initialisation(self):
        node, _ = make_node("variables { int x = 5; int y; float f; }")
        assert node.globals["x"] == 5
        assert node.globals["y"] == 0
        assert node.globals["f"] == 0.0

    def test_array_initialised_to_zeros(self):
        node, _ = make_node("variables { byte buf[4]; }")
        assert node.globals["buf"] == [0, 0, 0, 0]

    def test_message_variable_uses_spec(self):
        node, _ = make_node("variables { message reqSw m; }")
        assert node.globals["m"].can_id == 0x101
        assert node.globals["m"].dlc == 1

    def test_message_variable_numeric_id(self):
        node, _ = make_node("variables { message 0x300 m; }")
        assert node.globals["m"].can_id == 0x300

    def test_unknown_message_gets_auto_id(self):
        node, _ = make_node("variables { message mystery m; }")
        assert node.globals["m"].can_id >= 0x500

    def test_timer_variable_created(self):
        node, _ = make_node("variables { msTimer t; }")
        assert "t" in node.timers


class TestEventDispatch:
    def test_on_start_runs(self):
        node, bus = make_node('on start { write("booted"); }')
        bus.start()
        assert node.console == ["booted"]

    def test_on_message_by_name(self):
        node, bus = make_node(
            "variables { int got = 0; }\non message ping { got = this.byte(0); }"
        )
        node.deliver(CanFrame(0x200, [7], name="ping"))
        assert node.globals["got"] == 7

    def test_on_message_by_id(self):
        node, bus = make_node(
            "variables { int got = 0; }\non message 0x200 { got = 1; }"
        )
        node.deliver(CanFrame(0x200, [0]))
        assert node.globals["got"] == 1

    def test_wildcard_handler(self):
        node, bus = make_node(
            "variables { int count = 0; }\non message * { count++; }"
        )
        node.deliver(CanFrame(0x200, [0], name="ping"))
        node.deliver(CanFrame(0x399, [0]))
        assert node.globals["count"] == 2

    def test_specific_handler_beats_wildcard(self):
        node, bus = make_node(
            "variables { int which = 0; }\n"
            "on message ping { which = 1; }\n"
            "on message * { which = 2; }"
        )
        node.deliver(CanFrame(0x200, [0], name="ping"))
        assert node.globals["which"] == 1

    def test_on_timer(self):
        node, bus = make_node(
            "variables { msTimer t; int fired = 0; }\n"
            "on start { setTimer(t, 5); }\n"
            "on timer t { fired = 1; }"
        )
        bus.simulate(until=100_000)
        assert node.globals["fired"] == 1

    def test_on_key(self):
        node, bus = make_node(
            "variables { int pressed = 0; }\non key 'a' { pressed = 1; }"
        )
        node.on_key("a")
        assert node.globals["pressed"] == 1


class TestStatements:
    def run_function(self, body, prelude=""):
        node, _ = make_node(prelude + "\nint f() { " + body + " }")
        return node.call_function("f")

    def test_arithmetic(self):
        assert self.run_function("return 2 + 3 * 4;") == 14

    def test_integer_division(self):
        assert self.run_function("return 7 / 2;") == 3

    def test_division_by_zero_raises(self):
        with pytest.raises(CaplRuntimeError):
            self.run_function("return 1 / 0;")

    def test_if_else(self):
        assert self.run_function("if (2 > 1) { return 10; } else { return 20; }") == 10

    def test_while_loop(self):
        assert self.run_function(
            "int i = 0; int s = 0; while (i < 5) { s += i; i++; } return s;"
        ) == 10

    def test_for_loop(self):
        assert self.run_function(
            "int s = 0; for (int i = 1; i <= 4; i++) { s += i; } return s;"
        ) == 10

    def test_do_while(self):
        assert self.run_function(
            "int i = 0; do { i++; } while (i < 3); return i;"
        ) == 3

    def test_break_and_continue(self):
        assert self.run_function(
            "int s = 0;"
            "for (int i = 0; i < 10; i++) {"
            "  if (i == 2) { continue; }"
            "  if (i == 5) { break; }"
            "  s += i;"
            "} return s;"
        ) == 0 + 1 + 3 + 4

    def test_switch_with_fallthrough_and_break(self):
        body = (
            "int r = 0;"
            "switch (x) {"
            "  case 1: r = 10; break;"
            "  case 2: r = 20;"
            "  case 3: r = 30; break;"
            "  default: r = 99;"
            "} return r;"
        )
        node, _ = make_node("variables { int x = 2; }\nint f() { " + body + " }")
        assert node.call_function("f") == 30  # fallthrough 2 -> 3
        node.globals["x"] = 7
        assert node.call_function("f") == 99

    def test_arrays(self):
        assert self.run_function(
            "byte buf[3]; buf[0] = 9; buf[2] = buf[0] + 1; return buf[2];"
        ) == 10

    def test_ternary_and_logic(self):
        assert self.run_function("return (1 && 0) ? 5 : 6;") == 6
        assert self.run_function("return !0;") == 1

    def test_bitwise(self):
        assert self.run_function("return (0xF0 >> 4) | 0x10;") == 0x1F

    def test_runaway_loop_detected(self):
        with pytest.raises(CaplRuntimeError, match="runaway"):
            self.run_function("while (1) { }")

    def test_user_function_call(self):
        node, _ = make_node(
            "int dbl(int x) { return x * 2; }\nint f() { return dbl(21); }"
        )
        assert node.call_function("f") == 42

    def test_wrong_argument_count(self):
        node, _ = make_node("int g(int a) { return a; }")
        with pytest.raises(CaplRuntimeError):
            node.call_function("g")

    def test_undefined_variable(self):
        with pytest.raises(CaplRuntimeError):
            self.run_function("return missing;")

    def test_compound_assignment_operators(self):
        assert self.run_function(
            "int x = 8; x -= 2; x *= 3; x /= 2; x %= 7; return x;"
        ) == 2

    def test_scopes_shadow(self):
        assert self.run_function(
            "int x = 1; if (1) { int x = 2; } return x;"
        ) == 1


class TestMessaging:
    def test_output_transmits(self):
        node, bus = make_node(
            "variables { message pong m; }\non start { m.byte(0) = 3; output(m); }"
        )
        log = bus.simulate(until=10_000)
        assert len(log) == 1
        assert log.entries[0].frame.name == "pong"
        assert log.entries[0].frame.byte(0) == 3

    def test_request_response_between_nodes(self):
        scheduler = Scheduler()
        bus = CanBus(scheduler)
        asker = CaplNode(
            "ASKER",
            bus,
            "variables { message ping p; int answer = 0; }\n"
            "on start { output(p); }\n"
            "on message pong { answer = this.byte(0); }",
            SPECS,
        )
        replier = CaplNode(
            "REPLIER",
            bus,
            "variables { message pong q; }\n"
            "on message ping { q.byte(0) = 0x2A; output(q); }",
            SPECS,
        )
        bus.simulate(until=100_000)
        assert asker.globals["answer"] == 0x2A

    def test_this_properties(self):
        node, _ = make_node(
            "variables { int gid = 0; int gdlc = 0; }\n"
            "on message ping { gid = this.id; gdlc = this.dlc; }"
        )
        node.deliver(CanFrame(0x200, [1, 2], name="ping"))
        assert node.globals["gid"] == 0x200
        assert node.globals["gdlc"] == 2

    def test_signal_style_member_access(self):
        node, _ = make_node(
            "variables { message ping m; int v = 0; }\n"
            "int f() { m.Velocity = 88; return m.Velocity; }"
        )
        assert node.call_function("f") == 88

    def test_write_formatting(self):
        node, _ = make_node(
            'void f() { write("code %d at 0x%x: %s", 5, 255, "boom"); }'
        )
        node.call_function("f")
        assert node.console == ["code 5 at 0xff: boom"]

    def test_cancel_timer(self):
        node, bus = make_node(
            "variables { msTimer t; int fired = 0; }\n"
            "on start { setTimer(t, 5); cancelTimer(t); }\n"
            "on timer t { fired = 1; }"
        )
        bus.simulate(until=100_000)
        assert node.globals["fired"] == 0
