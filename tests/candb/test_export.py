"""Unit tests for the DBC -> CSPm declaration exporter and its CLI."""

import pathlib

import pytest

from repro.candb.cli import main as dbc2cspm_main
from repro.candb.cspm_export import export_database, message_inventory, sanitize
from repro.candb.parser import parse_dbc
from repro.cspm.evaluator import load

DATA_DBC = pathlib.Path(__file__).parents[2] / "src/repro/ota/data/ota_update.dbc"

SAMPLE = """\
VERSION "v"
BU_: VMG ECU
BO_ 257 reqSw: 1 VMG
 SG_ RequestType : 0|8@1+ (1,0) [0|3] "" ECU
BO_ 258 rptSw: 2 ECU
 SG_ Mode : 0|2@1+ (1,0) [0|2] "" VMG
 SG_ Crc : 8|16@1+ (1,0) [0|65535] "" VMG
VAL_ 258 Mode 0 "idle" 1 "active" 2 "fault mode";
"""


class TestSanitize:
    def test_spaces_and_symbols_replaced(self):
        assert sanitize("fault mode") == "fault_mode"
        assert sanitize("x-y/z") == "x_y_z"

    def test_leading_digit_prefixed(self):
        assert sanitize("42abc") == "v_42abc"

    def test_empty_prefixed(self):
        assert sanitize("") == "v_"


class TestExport:
    def test_message_datatype(self):
        text = export_database(parse_dbc(SAMPLE))
        assert "datatype MsgId = reqSw | rptSw" in text

    def test_value_table_becomes_datatype(self):
        text = export_database(parse_dbc(SAMPLE))
        assert "datatype rptSw_Mode = idle | active | fault_mode" in text

    def test_small_signal_becomes_nametype(self):
        text = export_database(parse_dbc(SAMPLE))
        assert "nametype reqSw_RequestType = {0..255}" in text

    def test_wide_signal_skipped(self):
        text = export_database(parse_dbc(SAMPLE))
        assert "Crc" not in text

    def test_max_range_bits_honoured(self):
        text = export_database(parse_dbc(SAMPLE), max_range_bits=16)
        assert "rptSw_Crc" in text

    def test_per_node_channels(self):
        text = export_database(parse_dbc(SAMPLE))
        assert "channel tx_VMG : MsgId" in text
        assert "channel tx_ECU : MsgId" in text

    def test_channels_can_be_disabled(self):
        text = export_database(parse_dbc(SAMPLE), per_node_channels=False)
        assert "tx_VMG" not in text

    def test_export_loads_as_valid_cspm(self):
        """The generated declarations must parse and evaluate."""
        text = export_database(parse_dbc(SAMPLE))
        model = load(text)
        assert "MsgId" in model.datatypes
        assert "can" in model.channels

    def test_shipped_dbc_export_loads(self):
        text = export_database(parse_dbc(DATA_DBC.read_text()))
        model = load(text)
        assert set(model.datatypes["MsgId"]) == {"reqSw", "rptSw", "reqApp", "rptUpd"}


class TestInventory:
    def test_table_shape(self):
        text = message_inventory(parse_dbc(SAMPLE))
        assert "0x101" in text and "reqSw" in text and "VMG" in text


class TestCli:
    def test_stdout_output(self, capsys):
        assert dbc2cspm_main([str(DATA_DBC)]) == 0
        assert "datatype MsgId" in capsys.readouterr().out

    def test_file_output(self, tmp_path):
        out = tmp_path / "decl.csp"
        assert dbc2cspm_main([str(DATA_DBC), "-o", str(out)]) == 0
        assert "channel can : MsgId" in out.read_text()
        load(out.read_text())  # round-trips through the CSPm front-end

    def test_inventory_flag(self, capsys):
        assert dbc2cspm_main([str(DATA_DBC), "--inventory"]) == 0
        assert "0x101" in capsys.readouterr().out
