"""Integration: the paper's reported results, end to end.

Each test pins one claim of the paper:

* Sec. VI   -- CAPL translates to a CSPm script FDR-style tooling can load.
* Sec. V-B  -- SP02 is refined by VMG [|{|send,rec|}|] ECU.
* Fig. 1    -- counterexamples (insecure traces) come back from the checker.
* Sec. IV-E -- attack trees translate to semantically equivalent processes.
* Sec. II-B -- the Needham-Schroeder-style lesson: a flaw invisible to
  simulation is exposed by refinement checking.
"""

from repro import api
from repro.csp.events import event
from repro.csp.lts import compile_lts
from repro.cspm import prelude
from repro.cspm.evaluator import load
from repro.ota.capl_sources import ECU_FLAWED_SOURCE, ECU_SOURCE
from repro.ota.models import build_paper_system, build_secured_system
from repro.ota.scenario import run_workflow
from repro.security.attack_tree import action, feasible_attacks, sequence_of
from repro.security.properties import never_occurs
from repro.translator.extractor import ModelExtractor


class TestSectionVI:
    """'application code ... can be translated into machine-readable format
    for the FDR refinement checker'."""

    def test_capl_to_cspm_to_checker_pipeline(self):
        result = ModelExtractor().extract(ECU_SOURCE, "ECU")
        model = result.load()  # parse + evaluate the generated CSPm
        assert model.process("ECU") is not None
        # the generated channel declarations mirror the paper's Fig. 3
        assert "channel send, rec : msgs" in result.script_text

    def test_prelude_fig3_script_loads(self):
        model = load(prelude.FIG3_STYLE_SCRIPT)
        assert "ECU_IMPL" in model.env


class TestSectionVB:
    """The SP02 integrity property."""

    def test_sp02_holds_on_correct_system(self):
        system = build_paper_system()
        assert api.check_refinement(system.sp02, system.system, "T", env=system.env).passed

    def test_sp02_script_form_matches_api_form(self):
        script_model = load(prelude.SP02_SCRIPT)
        (script_result,) = script_model.check_assertions()
        api_system = build_paper_system()
        api_result = api.check_refinement(api_system.sp02, api_system.system, "T", env=api_system.env)
        assert script_result.passed == api_result.passed is True


class TestFig1Workflow:
    """Counterexamples fed back to designers."""

    def test_insecure_trace_reported(self):
        report = run_workflow(flawed=True)
        failing = [r for r in report.check_results if not r.passed]
        assert failing
        description = failing[0].counterexample.describe()
        assert "rec.rptUpd" in description

    def test_fix_clears_the_finding(self):
        assert run_workflow(flawed=False).all_passed


class TestSectionIVE:
    """Attack trees as CSP processes, applied to the case study."""

    def test_injection_attack_tree_feasible_on_unprotected_system(self):
        secured = build_secured_system("none")
        inject = secured.fake("upd2")
        apply_bad = secured.apply("upd2")
        tree = sequence_of(action(inject), action(apply_bad))
        feasible = feasible_attacks(tree, secured.attacked_system, secured.env)
        assert (inject, apply_bad) in feasible

    def test_same_attack_infeasible_under_mac(self):
        secured = build_secured_system("mac")
        # the forged-token injection exists, but no apply of upd2 can follow
        inject = secured.fake(("upd2", "forged"))
        apply_bad = secured.apply("upd2")
        tree = sequence_of(action(inject), action(apply_bad))
        assert feasible_attacks(tree, secured.attacked_system, secured.env) == []


class TestSimulationVsVerification:
    """The motivating gap: testing (simulation) misses what checking finds.

    The flawed ECU behaves correctly in the simulated happy path -- the
    defect only triggers after an update request corrupts its state.  The
    bus trace therefore looks fine, yet the refinement check still finds
    the insecure trace: exactly the Needham-Schroeder lesson of Sec. II-B.
    """

    def test_flawed_ecu_simulates_cleanly_but_fails_checking(self):
        report = run_workflow(flawed=True)
        # the simulated run shows the normal message sequence...
        assert report.simulation_log.names()[:2] == ["reqSw", "rptSw"]
        # ...but verification exposes the latent flaw
        assert not report.all_passed

    def test_simulation_traces_are_model_traces_both_ways(self):
        for flawed in (False, True):
            report = run_workflow(flawed=flawed)
            assert report.simulation_trace_admitted
