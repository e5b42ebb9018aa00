"""Provenance-preserving counterexamples and golden compression stats.

The tentpole invariant: a check run on the compressed composition produces
the *byte-identical* counterexample of the uncompressed check, and its
provenance names the original component states the violation occurred in.
"""

import pytest

from repro.engine.pipeline import VerificationPipeline
from repro.ota.models import (
    build_paper_system,
    build_secured_system,
    build_session_system,
)
from repro.quickcheck import gen as g
from repro.quickcheck.testing import for_all
from repro.security.properties import never_occurs


def _paper_check(flawed, passes="default"):
    system = build_paper_system(flawed=flawed)
    pipeline = VerificationPipeline(system.env, passes=passes)
    return pipeline, pipeline.refinement(system.sp02, system.system, "T", "SP02")


class TestCounterexampleParity:
    def test_flawed_paper_system_trace_is_byte_identical(self):
        _, compressed = _paper_check(flawed=True)
        _, uncompressed = _paper_check(flawed=True, passes="none")
        assert not compressed.passed and not uncompressed.passed
        assert (
            compressed.counterexample.describe()
            == uncompressed.counterexample.describe()
        )
        assert compressed.counterexample.full_trace == (
            uncompressed.counterexample.full_trace
        )

    def test_compressed_counterexample_replays_on_uncompressed_lts(self):
        pipeline, result = _paper_check(flawed=True)
        system = build_paper_system(flawed=True)
        uncompressed = VerificationPipeline(system.env, passes="none")
        lts = uncompressed.compile(system.system)
        assert lts.walk(list(result.counterexample.full_trace)) is not None

    def test_verdict_and_trace_agreement_across_bundled_systems(self):
        def checks():
            for flawed in (False, True):
                basic = build_paper_system(flawed=flawed)
                yield basic.env, basic.sp02, basic.system
            session = build_session_system()
            yield session.env, session.spec, session.system

        for env, spec, impl in checks():
            compressed = VerificationPipeline(env).refinement(spec, impl, "T")
            uncompressed = VerificationPipeline(env, passes="none").refinement(
                spec, impl, "T"
            )
            assert compressed.passed == uncompressed.passed
            if not compressed.passed:
                assert (
                    compressed.counterexample.describe()
                    == uncompressed.counterexample.describe()
                )

    @pytest.mark.parametrize("protection,expect", [("none", False), ("mac", True)])
    def test_secured_system_verdicts_agree(self, protection, expect):
        for passes in ("default", "none"):
            secured = build_secured_system(protection)
            spec = never_occurs(
                secured.forbidden_applies,
                secured.alphabet,
                secured.env,
                "SPEC",
            )
            result = VerificationPipeline(secured.env, passes=passes).refinement(
                spec, secured.attacked_system, "T"
            )
            assert result.passed == expect, (protection, passes)


class TestProvenance:
    def test_violation_names_the_component_states(self):
        _, result = _paper_check(flawed=True)
        provenance = result.counterexample.provenance
        assert {entry.label for entry in provenance} == {"VMG", "ECU"}
        for entry in provenance:
            assert entry.original_term is not None
            assert "state {}".format(entry.original_state) in entry.describe()

    def test_passing_check_has_no_violation_provenance(self):
        _, result = _paper_check(flawed=False)
        assert result.passed
        assert result.counterexample is None

    def test_uncompressed_check_has_empty_provenance(self):
        _, result = _paper_check(flawed=True, passes="none")
        assert result.counterexample.provenance == ()

    def test_provenance_summary_renders(self):
        _, result = _paper_check(flawed=True)
        text = result.counterexample.provenance_summary()
        assert "VMG" in text and "ECU" in text


class TestGoldenPassStats:
    def test_fig2_demo_stats_are_pinned(self):
        _, result = _paper_check(flawed=False)
        assert result.passed
        # two components (VMG, ECU), four default passes each
        assert [s.name for s in result.pass_stats] == [
            "dead",
            "tau_loop",
            "diamond",
            "sbisim",
        ] * 2
        for stat in result.pass_stats:
            assert (stat.states_before, stat.states_after) == (2, 2)
            assert stat.wall_ms >= 0
        # compress-before-compose explores fewer product states than the
        # uncompressed check (the spec normal form folds a state)
        _, uncompressed = _paper_check(flawed=False, passes="none")
        assert result.states_explored < uncompressed.states_explored

    def test_pass_summary_renders_one_line_per_pass(self):
        _, result = _paper_check(flawed=False)
        lines = result.pass_summary().splitlines()
        assert len(lines) == len(result.pass_stats)
        assert all("states" in line for line in lines)


class TestReplayProperty:
    def test_compressed_counterexamples_replay_on_uncompressed_lts(
        self, repro_seed
    ):
        """Any violating trace found with compression on is a real trace of
        the uncompressed implementation and rejected by the specification."""
        inputs = g.tuples(
            g.process_terms(g.DEFAULT_EVENTS), g.process_terms(g.DEFAULT_EVENTS)
        )

        def check(value):
            spec, impl = value
            result = VerificationPipeline().refinement(spec, impl, "T")
            if result.passed:
                return
            trace = list(result.counterexample.full_trace)
            uncompressed = VerificationPipeline(passes="none")
            assert uncompressed.compile(impl).walk(trace) is not None
            baseline = uncompressed.refinement(spec, impl, "T")
            assert not baseline.passed

        for_all(
            inputs,
            check,
            seed=repro_seed,
            name="compressed-cex-replays",
            cases=40,
        )
