"""Refinement and property assertions through the verification pipeline.

The checks a CSPm ``assert`` line discharges -- on the pipeline directly
and through a loaded script's ``check_assertions`` and ``cspcheck`` report
-- plus the ``repro.api`` one-shots."""

import pytest

from repro.csp.events import event
from repro.csp.process import (
    Environment,
    ExternalChoice,
    InternalChoice,
    Prefix,
    STOP,
    ref,
    sequence,
)
import repro.fdr
from repro import api
from repro.fdr import counterexample, normalise, refine
from repro.cspm.evaluator import load
from repro.engine.pipeline import VerificationPipeline
from repro.fdr.cli import main as cspcheck_main

A, B = event("a"), event("b")


class TestRefinementAssertion:
    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            VerificationPipeline().refinement(STOP, STOP, model="X")

    def test_trace_model(self):
        assert VerificationPipeline().refinement(Prefix(A, STOP), STOP, "T").passed

    def test_failures_model(self):
        spec = ExternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        impl = InternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        pipeline = VerificationPipeline()
        assert pipeline.refinement(spec, impl, "T").passed
        assert not pipeline.refinement(spec, impl, "F").passed

    def test_failures_model_in_a_script(self):
        results = load(
            "channel a, b\n"
            "SPEC = a -> STOP [] b -> STOP\n"
            "IMPL = a -> STOP |~| b -> STOP\n"
            "assert SPEC [T= IMPL\n"
            "assert SPEC [F= IMPL\n"
        ).check_assertions()
        assert [result.passed for result in results] == [True, False]

    def test_custom_name_in_summary(self):
        result = VerificationPipeline().refinement(STOP, STOP, name="my check")
        assert "my check" in result.summary()


class TestPropertyAssertion:
    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError):
            VerificationPipeline().property_check(STOP, "sparkly")

    @pytest.mark.parametrize(
        "property_name", ["deadlock free", "divergence free", "deterministic"]
    )
    def test_known_properties_run(self, property_name):
        env = Environment().bind("P", Prefix(A, ref("P")))
        result = VerificationPipeline(env).property_check(ref("P"), property_name)
        assert result.passed


class TestSession:
    # A loaded CSPm script is the session: its definitions form the
    # environment, its assert lines the checks, and cspcheck the report.
    def test_define_and_report(self, tmp_path, capsys):
        script = (
            "channel a\n"
            "SPEC = a -> SPEC\n"
            "IMPL = a -> IMPL\n"
            "assert SPEC [T= IMPL\n"
            "assert IMPL :[deadlock free]\n"
        )
        results = load(script).check_assertions()
        assert len(results) == 2
        assert all(result.passed for result in results)
        path = tmp_path / "session.csp"
        path.write_text(script)
        assert cspcheck_main([str(path)]) == 0
        assert "2/2 assertions passed" in capsys.readouterr().out

    def test_failed_assertion_does_not_raise(self):
        results = load(
            "channel a, b\n"
            "SPEC = a -> STOP\n"
            "IMPL = b -> STOP\n"
            "assert SPEC [T= IMPL\n"
        ).check_assertions()
        assert len(results) == 1 and not results[0].passed

    def test_report_counts_failures(self, tmp_path, capsys):
        path = tmp_path / "session.csp"
        # fails: P ends in STOP
        path.write_text(
            "channel a, b\nP = a -> b -> STOP\nassert P :[deadlock free]\n"
        )
        assert cspcheck_main([str(path)]) == 1
        assert "0/1 assertions passed" in capsys.readouterr().out


class TestApiOneShots:
    # The deprecated one-shot wrappers of repro.fdr.assertions are gone;
    # their behaviour lives on the repro.api facade, pinned here.
    def test_wrappers_removed(self):
        for gone in (
            "trace_refinement",
            "fd_refinement",
            "failures_refinement",
            "deadlock_free",
            "divergence_free",
            "deterministic",
        ):
            for module in (repro.fdr, counterexample, normalise, refine):
                assert not hasattr(module, gone), (module.__name__, gone)

    def test_trace_refinement(self):
        assert api.check_refinement(Prefix(A, STOP), STOP, "T").passed

    def test_failures_refinement(self):
        assert not api.check_refinement(
            Prefix(A, STOP), InternalChoice(Prefix(A, STOP), STOP), "F"
        ).passed

    def test_deadlock_free(self):
        env = Environment().bind("P", Prefix(A, ref("P")))
        assert api.check_deadlock(ref("P"), env=env).passed
        assert not api.check_deadlock(STOP).passed

    def test_divergence_free(self):
        assert api.check_divergence(sequence(A, B)).passed

    def test_deterministic(self):
        assert api.check_determinism(sequence(A, B)).passed
        assert not api.check_determinism(
            InternalChoice(Prefix(A, STOP), STOP)
        ).passed

    def test_result_bool_protocol(self):
        assert bool(api.check_refinement(Prefix(A, STOP), STOP, "T"))
        assert not bool(api.check_refinement(STOP, Prefix(A, STOP), "T"))
