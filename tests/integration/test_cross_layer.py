"""Integration across substrate layers: DBC + CAPL + bus + extractor + checker."""

import pathlib

from repro import api
from repro.canbus.bus import CanBus
from repro.canbus.scheduler import Scheduler
from repro.candb.codec import decode_message, encode_message
from repro.candb.cspm_export import export_database
from repro.candb.parser import parse_dbc_file
from repro.capl.interpreter import CaplNode
from repro.csp.events import event
from repro.csp.lts import compile_lts
from repro.cspm.evaluator import load
from repro.ota.capl_sources import ECU_SOURCE, VMG_SOURCE
from repro.translator.extractor import ModelExtractor
from repro.translator.network import NetworkBuilder
from repro.translator.rules import ChannelConvention

DATA = pathlib.Path(__file__).parents[2] / "src/repro/ota/data"


class TestDbcDrivesEverything:
    """One .dbc file feeds the simulator, the codec and the CSPm export."""

    def test_dbc_specs_drive_simulation(self):
        database = parse_dbc_file(str(DATA / "ota_update.dbc"))
        scheduler = Scheduler()
        bus = CanBus(scheduler)
        vmg = CaplNode("VMG", bus, VMG_SOURCE, database.message_specs())
        ecu = CaplNode("ECU", bus, ECU_SOURCE, database.message_specs())
        log = bus.simulate(until=1_000_000)
        # wire identities come from the database
        ids = [entry.frame.can_id for entry in log]
        assert ids == [0x101, 0x102, 0x103, 0x104]

    def test_dbc_codec_roundtrip_on_simulated_frames(self):
        database = parse_dbc_file(str(DATA / "ota_update.dbc"))
        message = database.message_by_name("reqApp")
        payload = encode_message(
            message, {"ModuleId": 3, "PackageCrc": 0xBEEF, "ApplyMode": "scheduled"}
        )
        decoded = decode_message(message, payload)
        assert decoded["ModuleId"] == 3
        assert decoded["PackageCrc"] == 0xBEEF
        assert decoded["ApplyMode"] == "scheduled"

    def test_dbc_export_combines_with_extracted_model(self):
        """The DBC declarations and a hand-written process form one script."""
        database = parse_dbc_file(str(DATA / "ota_update.dbc"))
        declarations = export_database(database, per_node_channels=False)
        script = declarations + "\nP = can!reqSw -> can!rptSw -> P\n"
        model = load(script)
        assert api.check_deadlock(model.process("P"), env=model.env).passed


class TestShippedCaplFiles:
    def test_data_files_match_module_sources(self):
        assert (DATA / "vmg.can").read_text() == VMG_SOURCE
        assert (DATA / "ecu.can").read_text() == ECU_SOURCE

    def test_extract_shipped_file(self):
        result = ModelExtractor().extract_file(str(DATA / "ecu.can"))
        assert result.node_name == "ECU"
        model = result.load()
        assert api.check_deadlock(model.process("ECU"), env=model.env).passed


class TestThreeNodeNetwork:
    """Composition scales beyond the paper's two-node scope."""

    GATEWAY = """
    variables { message reqSw fwd; }
    on message reqSw { output(fwd); }
    """

    def test_three_node_composition_loads_and_runs(self):
        builder = NetworkBuilder(include_timers=False)
        builder.add_node("VMG", VMG_SOURCE, ChannelConvention("rec", "send"))
        builder.add_node("ECU", ECU_SOURCE, ChannelConvention("send", "rec"))
        builder.add_node("GW", self.GATEWAY, ChannelConvention("send", "send"))
        composed = builder.compose()
        model = composed.load()
        lts = compile_lts(model.process("SYSTEM"), model.env, max_states=50_000)
        assert lts.state_count > 0
