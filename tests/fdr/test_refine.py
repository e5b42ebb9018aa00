"""Unit tests for the refinement engine and the property checks."""

import pytest

from repro.csp.events import Alphabet, event
from repro.csp.lts import compile_lts
from repro.csp.process import (
    Environment,
    ExternalChoice,
    GenParallel,
    Hiding,
    InternalChoice,
    Prefix,
    SKIP,
    STOP,
    prefix,
    ref,
    sequence,
)
from repro.fdr.counterexample import (
    DeadlockCounterexample,
    DivergenceCounterexample,
    FailureCounterexample,
    NondeterminismCounterexample,
    TraceCounterexample,
)
from repro.fdr.refine import (
    check_deadlock_free,
    check_deterministic,
    check_divergence_free,
    check_failures_refinement,
    check_trace_refinement,
)

A, B, C = event("a"), event("b"), event("c")


def lts_of(process, env=None):
    return compile_lts(process, env or Environment())


class TestTraceRefinement:
    def test_reflexive(self):
        process = lts_of(sequence(A, B))
        assert check_trace_refinement(process, process).passed

    def test_stop_refines_everything(self):
        spec = lts_of(sequence(A, B))
        impl = lts_of(STOP)
        assert check_trace_refinement(spec, impl).passed

    def test_extra_event_fails_with_trace(self):
        spec = lts_of(Prefix(A, STOP))
        impl = lts_of(ExternalChoice(Prefix(A, STOP), Prefix(B, STOP)))
        result = check_trace_refinement(spec, impl)
        assert not result.passed
        assert isinstance(result.counterexample, TraceCounterexample)
        assert result.counterexample.forbidden == B
        assert result.counterexample.full_trace == (B,)

    def test_counterexample_is_shortest(self):
        env = Environment()
        env.bind("SPEC", Prefix(A, Prefix(B, ref("SPEC"))))
        # violation only on the second round
        env.bind("IMPL", Prefix(A, Prefix(B, Prefix(A, Prefix(C, STOP)))))
        result = check_trace_refinement(lts_of(ref("SPEC"), env), lts_of(ref("IMPL"), env))
        assert not result.passed
        assert result.counterexample.full_trace == (A, B, A, C)

    def test_nondeterministic_spec_normalised(self):
        # spec can do a then (b or c), nondeterministically
        spec_term = ExternalChoice(Prefix(A, Prefix(B, STOP)), Prefix(A, Prefix(C, STOP)))
        impl_term = Prefix(A, Prefix(C, STOP))
        assert check_trace_refinement(lts_of(spec_term), lts_of(impl_term)).passed

    def test_impl_tau_moves_tracked(self):
        spec = lts_of(Prefix(A, STOP))
        impl = lts_of(InternalChoice(Prefix(A, STOP), Prefix(A, STOP)))
        assert check_trace_refinement(spec, impl).passed

    def test_tick_must_be_allowed_by_spec(self):
        spec = lts_of(Prefix(A, STOP))
        impl = lts_of(SKIP)
        result = check_trace_refinement(spec, impl)
        assert not result.passed
        assert result.counterexample.forbidden.is_tick()

    def test_stats_reported(self):
        result = check_trace_refinement(lts_of(sequence(A, B)), lts_of(sequence(A, B)))
        assert result.states_explored > 0
        assert result.transitions_explored > 0

    def test_paper_sp02_scenario(self, msgs_channels):
        """The paper's Sec. V-B check, straight through the engine."""
        send, rec = msgs_channels
        env = Environment()
        env.bind("SP02", prefix(send("reqSw"), prefix(rec("rptSw"), ref("SP02"))))
        env.bind("VMG", prefix(send("reqSw"), prefix(rec("rptSw"), ref("VMG"))))
        env.bind("ECU", prefix(send("reqSw"), prefix(rec("rptSw"), ref("ECU"))))
        sync = Alphabet.from_channels(send, rec)
        system = GenParallel(ref("VMG"), ref("ECU"), sync)
        assert check_trace_refinement(lts_of(ref("SP02"), env), lts_of(system, env)).passed


class TestFailuresRefinement:
    def test_internal_choice_fails_failures_but_not_traces(self):
        spec_term = Prefix(A, Prefix(B, STOP))
        impl_term = Prefix(A, InternalChoice(Prefix(B, STOP), STOP))
        env = Environment()
        assert check_trace_refinement(lts_of(spec_term), lts_of(impl_term)).passed
        result = check_failures_refinement(lts_of(spec_term), lts_of(impl_term))
        assert not result.passed
        assert isinstance(result.counterexample, FailureCounterexample)
        assert result.counterexample.trace == (A,)

    def test_deterministic_impl_passes(self):
        process = sequence(A, B)
        assert check_failures_refinement(lts_of(process), lts_of(process)).passed

    def test_internal_choice_spec_allows_refusal(self):
        spec_term = InternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        impl_term = Prefix(A, STOP)
        assert check_failures_refinement(lts_of(spec_term), lts_of(impl_term)).passed

    def test_external_choice_spec_rejects_commitment(self):
        spec_term = ExternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        impl_term = InternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        result = check_failures_refinement(lts_of(spec_term), lts_of(impl_term))
        assert not result.passed

    def test_failure_counterexample_describes_offer(self):
        spec_term = Prefix(A, STOP)
        impl_term = InternalChoice(Prefix(A, STOP), STOP)
        result = check_failures_refinement(lts_of(spec_term), lts_of(impl_term))
        assert "stably offers" in result.counterexample.describe()


class TestDeadlockCheck:
    def test_recursive_process_deadlock_free(self):
        env = Environment().bind("P", Prefix(A, ref("P")))
        assert check_deadlock_free(lts_of(ref("P"), env)).passed

    def test_stop_after_trace_detected(self):
        result = check_deadlock_free(lts_of(sequence(A, B)))
        assert not result.passed
        assert isinstance(result.counterexample, DeadlockCounterexample)
        assert result.counterexample.trace == (A, B)

    def test_successful_termination_is_not_deadlock(self):
        assert check_deadlock_free(lts_of(SKIP)).passed
        assert check_deadlock_free(lts_of(sequence(A, then=SKIP))).passed

    def test_mismatched_sync_deadlocks(self):
        process = GenParallel(Prefix(A, STOP), Prefix(B, STOP), Alphabet.of(A, B))
        result = check_deadlock_free(lts_of(process))
        assert not result.passed
        assert result.counterexample.trace == ()


class TestDivergenceCheck:
    def test_visible_loop_not_divergent(self):
        env = Environment().bind("P", Prefix(A, ref("P")))
        assert check_divergence_free(lts_of(ref("P"), env)).passed

    def test_hidden_loop_divergent(self):
        env = Environment().bind("P", Prefix(A, ref("P")))
        result = check_divergence_free(lts_of(Hiding(ref("P"), Alphabet.of(A)), env))
        assert not result.passed
        assert isinstance(result.counterexample, DivergenceCounterexample)

    def test_divergence_after_trace(self):
        env = Environment().bind("P", Prefix(A, ref("P")))
        process = Prefix(B, Hiding(ref("P"), Alphabet.of(A)))
        result = check_divergence_free(lts_of(process, env))
        assert not result.passed
        assert result.counterexample.trace == (B,)


class TestDeterminismCheck:
    def test_deterministic_process(self):
        assert check_deterministic(lts_of(sequence(A, B))).passed

    def test_internal_choice_nondeterministic(self):
        process = InternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        result = check_deterministic(lts_of(process))
        assert not result.passed
        assert isinstance(result.counterexample, NondeterminismCounterexample)

    def test_ambiguous_prefix_nondeterministic(self):
        # after <a>, b may be accepted or refused
        process = ExternalChoice(Prefix(A, Prefix(B, STOP)), Prefix(A, STOP))
        result = check_deterministic(lts_of(process))
        assert not result.passed
        assert result.counterexample.ambiguous == B
        assert result.counterexample.trace == (A,)

    def test_external_choice_deterministic(self):
        process = ExternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        assert check_deterministic(lts_of(process)).passed
