"""Tests for failures-divergences refinement and CHAOS."""

from repro import api
from repro.csp.events import Alphabet, event
from repro.csp.process import (
    Environment,
    Hiding,
    InternalChoice,
    Prefix,
    STOP,
    ref,
    sequence,
)
from repro.fdr.counterexample import DivergenceCounterexample
from repro.security.properties import chaos

A, B = event("a"), event("b")


def divergent_after(prefix_event, env):
    env.bind("LOOPFD", Prefix(A, ref("LOOPFD")))
    return Prefix(prefix_event, Hiding(ref("LOOPFD"), Alphabet.of(A)))


class TestFdRefinement:
    def test_divergence_free_pair_agrees_with_failures(self):
        env = Environment()
        env.bind("SPEC", Prefix(A, Prefix(B, ref("SPEC"))))
        env.bind("IMPL", Prefix(A, Prefix(B, ref("IMPL"))))
        assert api.check_refinement(ref("SPEC"), ref("IMPL"), "FD", env=env).passed

    def test_implementation_divergence_caught(self):
        env = Environment()
        env.bind("SPEC", Prefix(B, ref("SPEC")))
        env.bind("DIVIMPL", divergent_after(B, env))
        f_result = api.check_refinement(ref("SPEC"), ref("DIVIMPL"), "F", env=env)
        fd_result = api.check_refinement(ref("SPEC"), ref("DIVIMPL"), "FD", env=env)
        assert f_result.passed  # stable failures is blind to divergence
        assert not fd_result.passed
        assert isinstance(fd_result.counterexample, DivergenceCounterexample)
        assert fd_result.counterexample.trace == (B,)

    def test_divergent_spec_permits_anything(self):
        env = Environment()
        env.bind("DIVSPEC", divergent_after(B, env))
        # after <b> the spec diverges: the impl may then do anything at all
        env.bind("WILD", Prefix(B, Prefix(A, Prefix(B, STOP))))
        assert api.check_refinement(ref("DIVSPEC"), ref("WILD"), "FD", env=env).passed

    def test_trace_violation_still_caught_before_divergence(self):
        env = Environment()
        env.bind("DIVSPEC", divergent_after(B, env))
        env.bind("EARLY", Prefix(A, STOP))  # 'a' not allowed initially
        result = api.check_refinement(ref("DIVSPEC"), ref("EARLY"), "FD", env=env)
        assert not result.passed

    def test_stable_refusal_checked(self):
        env = Environment()
        env.bind("SPEC", Prefix(A, ref("SPEC")))
        env.bind("LAZY", InternalChoice(Prefix(A, ref("LAZY")), STOP))
        assert api.check_refinement(ref("SPEC"), ref("LAZY"), "T", env=env).passed
        assert not api.check_refinement(ref("SPEC"), ref("LAZY"), "FD", env=env).passed


class TestChaos:
    def test_everything_trace_refines_chaos(self):
        env = Environment()
        spec = chaos(Alphabet.of(A, B), env, "CH")
        env.bind("ANY", Prefix(A, Prefix(B, Prefix(A, ref("ANY")))))
        assert api.check_refinement(spec, ref("ANY"), "T", env=env).passed

    def test_everything_failures_refines_chaos(self):
        env = Environment()
        spec = chaos(Alphabet.of(A, B), env, "CH")
        env.bind("STUBBORN", Prefix(A, STOP))
        assert api.check_refinement(spec, ref("STUBBORN"), "F", env=env).passed
        assert api.check_refinement(spec, STOP, "F", env=env).passed

    def test_chaos_rejects_foreign_events(self):
        env = Environment()
        spec = chaos(Alphabet.of(A), env, "CHA")
        env.bind("OTHER", Prefix(B, STOP))
        assert not api.check_refinement(spec, ref("OTHER"), "T", env=env).passed

    def test_empty_alphabet_chaos_is_stop(self):
        env = Environment()
        spec = chaos(Alphabet(), env, "CH0")
        assert api.check_refinement(spec, STOP, "T", env=env).passed

    def test_divergent_impl_fails_fd_against_chaos(self):
        env = Environment()
        spec = chaos(Alphabet.of(A, B), env, "CHD")
        env.bind("DIV", divergent_after(B, env))
        assert not api.check_refinement(spec, ref("DIV"), "FD", env=env).passed


class TestCspmFdAssertions:
    def test_fd_assert_in_script(self):
        from repro.cspm.evaluator import load

        model = load(
            "datatype m = a\nchannel c : m\n"
            "SPEC = c!a -> SPEC\n"
            "IMPL = c!a -> IMPL\n"
            "assert SPEC [FD= IMPL"
        )
        (result,) = model.check_assertions()
        assert result.passed
