"""CAPL signal access backed by a CANdb database (paper Sec. IV-B2).

"CAPL links seamlessly with any associated CANdb databases to access
message formats and signal fields."  These tests exercise that link: a
node constructed with a Database reads and writes ``msg.<Signal>`` through
the codec -- scaling, value tables and bit packing included.
"""

import pathlib

import pytest

from repro.canbus.bus import CanBus
from repro.canbus.scheduler import Scheduler
from repro.candb.parser import parse_dbc, parse_dbc_file
from repro.capl.builtins import CaplRuntimeError
from repro.capl.interpreter import CaplNode

DATA_DBC = pathlib.Path(__file__).parents[2] / "src/repro/ota/data/ota_update.dbc"

SCALED_DBC = """\
VERSION "signals"
BU_: SENSOR DISPLAY
BO_ 300 status: 3 SENSOR
 SG_ Speed : 0|12@1+ (0.1,0) [0|409.5] "km/h" DISPLAY
 SG_ Gear : 12|3@1+ (1,0) [0|4] "" DISPLAY
 SG_ Temp : 16|8@1+ (0.5,-40) [-40|87.5] "degC" DISPLAY
VAL_ 300 Gear 0 "park" 1 "reverse" 2 "drive";
"""


def make_node(source, dbc_text=SCALED_DBC):
    scheduler = Scheduler()
    bus = CanBus(scheduler)
    node = CaplNode("N", bus, source, database=parse_dbc(dbc_text))
    return node, bus


class TestSignalWrites:
    def test_write_packs_bytes(self):
        node, _ = make_node(
            "variables { message status m; }\n"
            "int f() { m.Speed = 100; return m.byte(0); }"
        )
        # 100 km/h -> raw 1000 = 0x3E8; low byte 0xE8
        assert node.call_function("f") == 0xE8

    def test_write_with_scaling_roundtrip(self):
        node, _ = make_node(
            "variables { message status m; }\n"
            "int f() { m.Temp = 20; return m.Temp; }"
        )
        assert node.call_function("f") == 20

    def test_write_value_table_label(self):
        node, _ = make_node(
            "variables { message status m; int raw; }\n"
            'int f() { m.Gear = "drive"; return m.byte(1); }'
        )
        # gear occupies bits 12..14: raw 2 -> byte1 low nibble = 0x20
        assert node.call_function("f") == 0x20

    def test_unknown_label_rejected(self):
        node, _ = make_node(
            "variables { message status m; }\n"
            'void f() { m.Gear = "warp"; }'
        )
        with pytest.raises(CaplRuntimeError, match="warp"):
            node.call_function("f")

    def test_unknown_signal_falls_back_to_attribute(self):
        node, _ = make_node(
            "variables { message status m; }\n"
            "int f() { m.NotASignal = 9; return m.NotASignal; }"
        )
        assert node.call_function("f") == 9


class TestSignalReads:
    def test_read_received_frame_signals(self):
        """A receiving node decodes signals from the incoming frame."""
        node, _ = make_node(
            "variables { int speed = 0; int temp = 0; }\n"
            "on message status { speed = this.Speed; temp = this.Temp; }"
        )
        from repro.candb.codec import encode_message

        database = parse_dbc(SCALED_DBC)
        message = database.message_by_name("status")
        payload = encode_message(message, {"Speed": 88, "Temp": 0})
        from repro.canbus.frame import CanFrame

        node.deliver(CanFrame(300, payload, name="status"))
        assert node.globals["speed"] == 88
        assert node.globals["temp"] == 0


class TestEndToEndSignals:
    def test_two_nodes_exchange_signals_over_bus(self):
        scheduler = Scheduler()
        bus = CanBus(scheduler)
        database = parse_dbc(SCALED_DBC)
        sender = CaplNode(
            "SENSOR",
            bus,
            "variables { message status m; }\n"
            'on start { m.Speed = 120; m.Gear = "drive"; output(m); }',
            database=database,
        )
        receiver = CaplNode(
            "DISPLAY",
            bus,
            "variables { int shown = 0; int gear = 0; }\n"
            "on message status { shown = this.Speed; gear = this.Gear; }",
            database=database,
        )
        bus.simulate(until=100_000)
        assert receiver.globals["shown"] == 120
        assert receiver.globals["gear"] == 2  # raw value of "drive"

    def test_ota_dbc_wire_ids_used(self):
        database = parse_dbc_file(str(DATA_DBC))
        scheduler = Scheduler()
        bus = CanBus(scheduler)
        node = CaplNode(
            "VMG",
            bus,
            "variables { message reqSw m; }\non start { output(m); }",
            database=database,
        )
        CaplNode("SINK", bus, "variables { int x; }", database=database)
        log = bus.simulate(until=100_000)
        assert log.entries[0].frame.can_id == 0x101
