"""Unit tests for the hand-written CSP models of the case study."""

import pytest

from repro import api
from repro.csp.events import event
from repro.csp.lts import compile_lts
from repro.ota.models import (
    build_paper_system,
    build_secured_system,
    build_session_system,
)
from repro.security.properties import never_occurs


class TestPaperSystem:
    def test_sp02_refined_by_faithful_system(self):
        system = build_paper_system()
        result = api.check_refinement(system.sp02, system.system, "T", env=system.env)
        assert result.passed

    def test_sp02_fails_on_flawed_system_with_paper_trace(self):
        system = build_paper_system(flawed=True)
        result = api.check_refinement(system.sp02, system.system, "T", env=system.env)
        assert not result.passed
        assert result.counterexample.full_trace == (
            event("send", "reqSw"),
            event("rec", "rptUpd"),
        )

    def test_system_deadlock_free(self):
        system = build_paper_system()
        assert api.check_deadlock(system.system, env=system.env).passed

    def test_vmg_and_ecu_alternate(self):
        system = build_paper_system()
        lts = compile_lts(system.system, system.env)
        req, rpt = event("send", "reqSw"), event("rec", "rptSw")
        assert lts.walk([req, rpt, req, rpt]) is not None
        assert lts.walk([req, req]) is None

    def test_custom_environment_reused(self):
        from repro.csp.process import Environment

        env = Environment()
        system = build_paper_system(env)
        assert system.env is env
        assert "SP02" in env and "SYSTEM" in env


class TestSessionSystem:
    def test_full_session_refines_spec(self):
        session = build_session_system()
        assert api.check_refinement(session.spec, session.system, "T", env=session.env).passed

    def test_session_order(self):
        session = build_session_system()
        lts = compile_lts(session.system, session.env)
        events = [
            event("send", "reqSw"),
            event("rec", "rptSw"),
            event("send", "reqApp"),
            event("rec", "rptUpd"),
        ]
        assert lts.walk(events) is not None
        # update before diagnose is impossible
        assert lts.walk([event("send", "reqApp")]) is None

    def test_session_deadlock_free(self):
        session = build_session_system()
        assert api.check_deadlock(session.system, env=session.env).passed


class TestSecuredSystem:
    def test_unknown_protection_rejected(self):
        with pytest.raises(ValueError):
            build_secured_system("rot13")

    def test_unprotected_system_admits_injection(self):
        secured = build_secured_system("none")
        spec = never_occurs(
            secured.forbidden_applies, secured.alphabet, secured.env
        )
        result = api.check_refinement(spec, secured.attacked_system, "T", env=secured.env)
        assert not result.passed
        assert result.counterexample.forbidden == secured.apply("upd2")

    def test_mac_blocks_injection(self):
        secured = build_secured_system("mac")
        spec = never_occurs(
            secured.forbidden_applies, secured.alphabet, secured.env
        )
        assert api.check_refinement(spec, secured.attacked_system, "T", env=secured.env).passed

    def test_mac_nonce_blocks_injection(self):
        secured = build_secured_system("mac_nonce")
        spec = never_occurs(
            secured.forbidden_applies, secured.alphabet, secured.env
        )
        assert api.check_refinement(spec, secured.attacked_system, "T", env=secured.env).passed

    def test_honest_flow_still_possible_under_mac(self):
        """Security must not break function: the legitimate update applies."""
        secured = build_secured_system("mac")
        lts = compile_lts(secured.attacked_system, secured.env)
        send_event, apply_event = secured.agreement_pairs[0]
        assert lts.walk([send_event, apply_event]) is not None

    def test_replay_possible_under_mac(self):
        secured = build_secured_system("mac")
        lts = compile_lts(secured.attacked_system, secured.env)
        send_event, apply_event = secured.agreement_pairs[0]
        payload = send_event.fields[0]
        replay = secured.fake(payload)
        assert lts.walk([send_event, apply_event, replay, apply_event]) is not None

    def test_replay_rejected_under_mac_nonce(self):
        secured = build_secured_system("mac_nonce")
        lts = compile_lts(secured.attacked_system, secured.env)
        send_event, apply_event = secured.agreement_pairs[0]
        payload = send_event.fields[0]
        replay = secured.fake(payload)
        # the replayed nonce is used up: the second apply cannot happen
        assert lts.walk([send_event, apply_event, replay, apply_event]) is None
