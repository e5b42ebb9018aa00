"""Unit tests for the end-to-end Fig. 1 workflow runner."""

import pytest

from repro.ota.capl_sources import ECU_FLAWED_SOURCE
from repro.ota.scenario import extract_system, run_workflow, simulate_network


class TestSimulation:
    def test_demo_network_exchanges_four_frames(self):
        log, vmg, ecu = simulate_network()
        assert log.names() == ["reqSw", "rptSw", "reqApp", "rptUpd"]

    def test_vmg_console_reports_result(self):
        _log, vmg, _ecu = simulate_network()
        assert any("update result" in line for line in vmg.console)

    def test_ecu_version_bumped_by_update(self):
        _log, _vmg, ecu = simulate_network()
        assert ecu.globals["swVersion"] == 8  # 7 + 1 after applyUpdate


class TestExtraction:
    def test_composed_script_contains_both_nodes(self):
        composed = extract_system()
        assert "VMG" in composed.script_text and "ECU" in composed.script_text
        assert "assert SP02_LOOSE [T= SYSTEM_DATA" in composed.script_text


class TestWorkflow:
    def test_faithful_workflow_passes(self):
        report = run_workflow()
        assert report.all_passed
        assert report.simulation_trace_admitted
        assert len(report.simulation_log) == 4

    def test_flawed_workflow_fails_with_insecure_trace(self):
        report = run_workflow(flawed=True)
        assert not report.all_passed
        (result,) = report.check_results
        trace_events = [str(e) for e in result.counterexample.full_trace]
        assert trace_events == ["send.reqSw", "rec.rptUpd"]

    def test_flawed_simulation_still_admitted_by_its_model(self):
        """The extracted model must over-approximate the real execution --
        even the flawed ECU's simulated run is a trace of its own model."""
        report = run_workflow(flawed=True)
        assert report.simulation_trace_admitted

    def test_summary_renders(self):
        report = run_workflow()
        text = report.summary()
        assert "PASSED" in text and "frames exchanged" in text


class TestExtendedVmgSource:
    def test_extended_vmg_parses_and_extracts(self):
        """The Sec. VIII-A extended VMG source is both runnable and
        translatable (server-side message types included)."""
        from repro.capl.parser import parse
        from repro.ota.capl_sources import VMG_EXTENDED_SOURCE
        from repro.translator.extractor import ExtractorConfig, ModelExtractor
        from repro.translator.rules import ChannelConvention

        program = parse(VMG_EXTENDED_SOURCE)
        selectors = {p.selector for p in program.message_handlers()}
        assert "update" in selectors  # the X.1373 server push

        config = ExtractorConfig(convention=ChannelConvention("rec", "send"))
        result = ModelExtractor(config).extract(VMG_EXTENDED_SOURCE, "XVMG")
        assert "update_report" in result.messages
        model = result.load()
        assert "XVMG" in model.env
