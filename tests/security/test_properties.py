"""Unit tests for the security-property specification templates."""

import pytest

from repro import api
from repro.csp.events import Alphabet, event
from repro.csp.lts import compile_lts
from repro.csp.process import Environment, Prefix, STOP, prefix, ref, sequence
from repro.security.properties import (
    alternates,
    bounded_outstanding,
    never_occurs,
    precedes,
    request_response,
    run_process,
)

A, B, C = event("a"), event("b"), event("c")
ALPHABET = Alphabet.of(A, B, C)


class TestRunProcess:
    def test_allows_everything_in_alphabet(self):
        env = Environment()
        spec = run_process(ALPHABET, env, "RUNABC")
        lts = compile_lts(spec, env)
        assert lts.walk([A, B, C, A]) is not None

    def test_refuses_nothing_never_deadlocks(self):
        env = Environment()
        spec = run_process(ALPHABET, env)
        lts = compile_lts(spec, env)
        assert not lts.is_deadlocked(lts.initial)

    def test_empty_alphabet_is_stop(self):
        env = Environment()
        spec = run_process(Alphabet(), env)
        lts = compile_lts(spec, env)
        assert lts.is_deadlocked(lts.initial)


class TestRequestResponse:
    def test_sp02_shape(self):
        env = Environment()
        spec = request_response(A, B, env, "SP")
        impl_env = Environment().bind("I", Prefix(A, Prefix(B, ref("I"))))
        merged = env.merged(impl_env)
        assert api.check_refinement(spec, ref("I"), "T", env=merged).passed

    def test_out_of_order_fails(self):
        env = Environment()
        spec = request_response(A, B, env, "SP")
        env.bind("I", Prefix(B, STOP))
        assert not api.check_refinement(spec, ref("I"), "T", env=env).passed


class TestNeverOccurs:
    def test_forbidden_event_fails(self):
        env = Environment()
        spec = never_occurs([C], ALPHABET, env)
        env.bind("I", sequence(A, C))
        result = api.check_refinement(spec, ref("I"), "T", env=env)
        assert not result.passed
        assert result.counterexample.forbidden == C

    def test_clean_system_passes(self):
        env = Environment()
        spec = never_occurs([C], ALPHABET, env)
        env.bind("I", Prefix(A, Prefix(B, ref("I"))))
        assert api.check_refinement(spec, ref("I"), "T", env=env).passed


class TestPrecedes:
    def test_commit_before_running_fails(self):
        env = Environment()
        spec = precedes(A, B, ALPHABET, env)
        env.bind("I", Prefix(B, STOP))
        assert not api.check_refinement(spec, ref("I"), "T", env=env).passed

    def test_commit_after_running_passes(self):
        env = Environment()
        spec = precedes(A, B, ALPHABET, env)
        env.bind("I", sequence(A, B, C))
        assert api.check_refinement(spec, ref("I"), "T", env=env).passed

    def test_other_events_free_before_first(self):
        env = Environment()
        spec = precedes(A, B, ALPHABET, env)
        env.bind("I", sequence(C, C, A, B))
        assert api.check_refinement(spec, ref("I"), "T", env=env).passed

    def test_everything_free_after_first(self):
        env = Environment()
        spec = precedes(A, B, ALPHABET, env)
        env.bind("I", sequence(A, B, B, C, B))
        assert api.check_refinement(spec, ref("I"), "T", env=env).passed


class TestAlternates:
    def test_strict_alternation_passes(self):
        env = Environment()
        spec = alternates(A, B, ALPHABET, env)
        env.bind("I", Prefix(A, Prefix(B, ref("I"))))
        assert api.check_refinement(spec, ref("I"), "T", env=env).passed

    def test_double_request_fails(self):
        env = Environment()
        spec = alternates(A, B, ALPHABET, env)
        env.bind("I", sequence(A, A))
        assert not api.check_refinement(spec, ref("I"), "T", env=env).passed

    def test_response_first_fails(self):
        env = Environment()
        spec = alternates(A, B, ALPHABET, env)
        env.bind("I", sequence(B))
        assert not api.check_refinement(spec, ref("I"), "T", env=env).passed

    def test_other_traffic_ignored(self):
        env = Environment()
        spec = alternates(A, B, ALPHABET, env)
        env.bind("I", sequence(C, A, C, B, C))
        assert api.check_refinement(spec, ref("I"), "T", env=env).passed


class TestBoundedOutstanding:
    def test_limit_validated(self):
        with pytest.raises(ValueError):
            bounded_outstanding(A, B, 0, Environment())

    def test_within_limit_passes(self):
        env = Environment()
        spec = bounded_outstanding(A, B, 2, env, "BO")
        env.bind("I", sequence(A, A, B, B))
        assert api.check_refinement(spec, ref("I"), "T", env=env).passed

    def test_flood_beyond_limit_fails(self):
        env = Environment()
        spec = bounded_outstanding(A, B, 2, env, "BO")
        env.bind("I", sequence(A, A, A))
        result = api.check_refinement(spec, ref("I"), "T", env=env)
        assert not result.passed
        assert result.counterexample.full_trace == (A, A, A)

    def test_response_without_request_fails(self):
        env = Environment()
        spec = bounded_outstanding(A, B, 1, env, "BO")
        env.bind("I", sequence(B))
        assert not api.check_refinement(spec, ref("I"), "T", env=env).passed
