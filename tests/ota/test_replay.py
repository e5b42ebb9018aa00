"""Tests for counterexample replay on the simulated bus."""

from repro.csp.events import event
from repro.ota.capl_sources import ECU_FLAWED_SOURCE, ECU_SOURCE
from repro.ota.replay import (
    find_witness,
    replay_insecure_trace,
    split_counterexample,
)
from repro.ota.scenario import run_workflow


class TestSplit:
    def test_channels_routed(self):
        trace = [event("send", "reqSw"), event("rec", "rptUpd")]
        stimuli, responses = split_counterexample(trace)
        assert stimuli == ["reqSw"]
        assert responses == ["rptUpd"]

    def test_timer_events_ignored(self):
        trace = [
            event("setTimer", "t"),
            event("send", "reqApp"),
            event("timeout", "t"),
            event("rec", "rptUpd"),
        ]
        stimuli, responses = split_counterexample(trace)
        assert stimuli == ["reqApp"] and responses == ["rptUpd"]


class TestReplay:
    COUNTEREXAMPLE = [event("send", "reqSw"), event("rec", "rptUpd")]

    def test_faithful_ecu_never_confirms(self):
        outcome = replay_insecure_trace(self.COUNTEREXAMPLE, ECU_SOURCE)
        assert not outcome.confirmed
        assert outcome.observed_responses == ("rptSw",)

    def test_flawed_ecu_not_confirmed_from_initial_state(self):
        """The defect is latent: from a fresh state the flawed ECU still
        answers correctly -- the abstract counterexample does not replay
        directly (the over-approximation at work)."""
        outcome = replay_insecure_trace(self.COUNTEREXAMPLE, ECU_FLAWED_SOURCE)
        assert not outcome.confirmed

    def test_flawed_ecu_confirmed_with_setup(self):
        outcome = replay_insecure_trace(
            self.COUNTEREXAMPLE, ECU_FLAWED_SOURCE, setup=["reqApp"]
        )
        assert outcome.confirmed
        assert outcome.expected_responses == ("rptUpd",)
        assert "confirmed" in outcome.describe()

    def test_witness_search_finds_setup(self):
        outcome = find_witness(self.COUNTEREXAMPLE, ECU_FLAWED_SOURCE)
        assert outcome.confirmed
        assert outcome.setup  # a non-empty state-preparation sequence

    def test_witness_search_reports_artefact_on_faithful_ecu(self):
        outcome = find_witness(self.COUNTEREXAMPLE, ECU_SOURCE)
        assert not outcome.confirmed
        assert "not reproduced" in outcome.describe()


class TestWorkflowIntegration:
    def test_checker_finding_replays_on_the_wire(self):
        """End of the loop: take the actual counterexample the checker
        produced for the flawed system and confirm it on the bus."""
        report = run_workflow(flawed=True)
        (failing,) = [r for r in report.check_results if not r.passed]
        trace = failing.counterexample.full_trace
        outcome = find_witness(trace, ECU_FLAWED_SOURCE)
        assert outcome.confirmed
