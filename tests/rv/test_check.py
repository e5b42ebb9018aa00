"""The streaming trace-membership checker."""

import pytest

from repro import api
from repro.csp.events import Event
from repro.csp.process import Environment, Prefix, STOP, ref
from repro.fdr.normalise import normalise
from repro.rv.check import (
    CONTEXT_WINDOW,
    TraceChecker,
    TraceViolation,
    check_trace_membership,
)

A, B, C = Event("a"), Event("b"), Event("c")


def loop_env():
    """AB = a -> b -> AB"""
    env = Environment()
    env.bind("AB", Prefix(A, Prefix(B, ref("AB"))))
    return env


class TestTraceChecker:
    def norm(self, term, env):
        from repro.csp.lts import compile_lts

        return normalise(compile_lts(term, env))

    def test_accepts_member_traces(self):
        env = loop_env()
        checker = TraceChecker(self.norm(ref("AB"), env))
        for event in (A, B, A, B, A):
            assert checker.advance(event)
        assert not checker.failed
        assert checker.violation is None

    def test_prefixes_accepted(self):
        env = loop_env()
        checker = TraceChecker(self.norm(ref("AB"), env))
        assert not checker.failed  # the empty trace is always a member

    def test_rejects_at_first_bad_event(self):
        env = loop_env()
        checker = TraceChecker(self.norm(ref("AB"), env))
        assert checker.advance(A)
        assert not checker.advance(A, line=12)
        assert checker.failed
        violation = checker.violation
        assert isinstance(violation, TraceViolation)
        assert violation.position == 1
        assert violation.forbidden == A
        assert violation.line == 12
        assert violation.trace == (A,)

    def test_unknown_event_rejected(self):
        env = loop_env()
        checker = TraceChecker(self.norm(ref("AB"), env))
        assert not checker.advance(C)  # c is outside the spec's alphabet

    def test_latched_after_violation(self):
        env = loop_env()
        checker = TraceChecker(self.norm(ref("AB"), env))
        checker.advance(B)
        first = checker.violation
        assert not checker.advance(A)  # stays failed; violation unchanged
        assert checker.violation is first

    def test_context_window_bounded(self):
        env = loop_env()
        checker = TraceChecker(self.norm(ref("AB"), env))
        for _ in range(3 * CONTEXT_WINDOW):
            checker.advance(A)
            checker.advance(B)
        checker.advance(C)
        assert len(checker.violation.trace) == CONTEXT_WINDOW

    def test_doc_fields(self):
        violation = TraceViolation((A,), B, 1, line=4)
        assert violation.doc_fields() == {
            "position": 1,
            "event": "b",
            "frame": {"line": 4},
        }
        assert TraceViolation((A,), B, 1).doc_fields() == {
            "position": 1,
            "event": "b",
        }


class TestCheckTraceMembership:
    def test_pass_and_fail(self):
        env = loop_env()
        assert check_trace_membership(ref("AB"), [A, B, A], env=env).passed
        result = check_trace_membership(ref("AB"), [A, A], env=env)
        assert not result.passed
        assert result.counterexample.position == 1

    def test_streams_a_generator(self):
        env = loop_env()

        def endless_violation():
            yield A
            yield B
            yield C  # violation found here; nothing further is drawn
            raise AssertionError("checker must stop at the violation")

        result = check_trace_membership(ref("AB"), endless_violation(), env=env)
        assert not result.passed
        assert result.counterexample.position == 2

    def test_lines_attach_provenance(self):
        env = loop_env()
        result = check_trace_membership(
            ref("AB"), [A, C], env=env, lines=[10, 20]
        )
        assert result.counterexample.line == 20
        assert "log line 20" in result.counterexample.describe()

    def test_agrees_with_refinement_on_linear_traces(self):
        # membership of <e1..en> in SPEC must equal SPEC [T= e1->..->en->STOP
        env = loop_env()
        for trace in ([], [A], [A, B], [B], [A, B, A], [A, A], [A, B, B]):
            impl = STOP
            for event in reversed(trace):
                impl = Prefix(event, impl)
            refine = api.check_refinement(ref("AB"), impl, "T", env=env)
            member = check_trace_membership(ref("AB"), trace, env=env)
            assert refine.passed == member.passed, trace

    def test_api_check_trace_routes_here(self):
        env = loop_env()
        result = api.check_trace(ref("AB"), [A, B], env=env, name="via api")
        assert result.passed
        assert result.name == "via api"

    def test_default_label_and_counters(self):
        env = loop_env()
        result = check_trace_membership(ref("AB"), [A, B, A], env=env)
        assert "trace membership" in result.name
        assert result.states_explored == 4  # initial node + 3 events
        assert result.transitions_explored == 3
