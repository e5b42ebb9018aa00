"""Tests for the extended server-to-ECU scope (paper Sec. VIII-A)."""

from repro import api
from repro.csp.events import Alphabet, event
from repro.csp.lts import compile_lts
from repro.csp.process import Hiding
from repro.ota.extended import build_extended_system
from repro.security.properties import precedes, request_response


class TestExtendedSystem:
    def test_end_to_end_spec_refined(self):
        system = build_extended_system()
        result = api.check_refinement(system.spec, system.system, "T", env=system.env)
        assert result.passed, result.summary()

    def test_deadlock_free(self):
        system = build_extended_system()
        assert api.check_deadlock(system.system, env=system.env).passed

    def test_divergence_free(self):
        system = build_extended_system()
        assert api.check_divergence(system.system, env=system.env).passed

    def test_full_round_executes(self):
        system = build_extended_system()
        lts = compile_lts(system.system, system.env)
        round_trip = [
            system.srv("diagnose"),
            system.send("reqSw"),
            system.rec("rptSw"),
            system.srv("diagnoseRpt"),
            system.srv("update_check"),
            system.srv("update"),
            system.send("reqApp"),
            system.rec("rptUpd"),
            system.srv("update_report"),
        ]
        assert lts.walk(round_trip) is not None
        # and a second round follows the first
        assert lts.walk(round_trip + round_trip) is not None

    def test_update_cannot_skip_diagnosis(self):
        system = build_extended_system()
        lts = compile_lts(system.system, system.env)
        assert lts.walk([system.srv("update")]) is None
        assert lts.walk([system.send("reqApp")]) is None

    def test_vehicle_side_projection_still_satisfies_sp02(self):
        """Hiding the server link, the original Sec. V property holds."""
        system = build_extended_system()
        env = system.env
        keep = Alphabet.of(system.send("reqSw"), system.rec("rptSw"))
        everything = (
            system.srv.alphabet()
            | Alphabet.from_channels(system.send, system.rec)
        )
        projected = Hiding(system.system, everything - keep)
        spec = request_response(
            system.send("reqSw"), system.rec("rptSw"), env, "XSP02"
        )
        assert api.check_refinement(spec, projected, "T", env=env).passed

    def test_apply_preceded_by_server_update(self):
        """No ECU update without the server having pushed one."""
        system = build_extended_system()
        env = system.env
        alphabet = system.srv.alphabet() | Alphabet.from_channels(
            system.send, system.rec
        )
        spec = precedes(
            system.srv("update"), system.send("reqApp"), alphabet, env, "XPREC"
        )
        assert api.check_refinement(spec, system.system, "T", env=env).passed
