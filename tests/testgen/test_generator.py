"""Unit tests for model-based test generation."""

import pytest

from repro.csp.events import event
from repro.csp.lts import compile_lts
from repro.csp.process import (
    Environment,
    ExternalChoice,
    InternalChoice,
    Prefix,
    STOP,
    ref,
    sequence,
)
from repro.fdr.normalise import normalise
from repro.testgen.generator import (
    bounded_traces,
    coverage_of,
    state_cover,
    transition_cover,
)

A, B, C = event("a"), event("b"), event("c")


class TestStateCover:
    def test_linear_process(self):
        access = state_cover(sequence(A, B))
        traces = sorted(access.values(), key=len)
        assert traces[0] == ()
        assert (A,) in access.values()
        assert (A, B) in access.values()

    def test_cycle_reached_once(self):
        env = Environment().bind("P", Prefix(A, Prefix(B, ref("P"))))
        access = state_cover(ref("P"), env)
        assert len(access) == 2
        assert set(access.values()) == {(), (A,)}

    def test_access_traces_are_shortest(self):
        # two routes to the same state: the cover must use the short one
        process = ExternalChoice(
            Prefix(A, Prefix(C, STOP)), Prefix(B, Prefix(A, Prefix(C, STOP)))
        )
        access = state_cover(process)
        for trace in access.values():
            assert len(trace) <= 3

    def test_accepts_lts_and_normalised_inputs(self):
        lts = compile_lts(sequence(A, B))
        spec = normalise(lts)
        assert state_cover(lts).keys() == state_cover(spec).keys()

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            state_cover("not a process")


class TestTransitionCover:
    def test_every_transition_exercised(self):
        env = Environment().bind(
            "P", ExternalChoice(Prefix(A, ref("P")), Prefix(B, Prefix(C, ref("P"))))
        )
        tests = transition_cover(ref("P"), env)
        covered, total = coverage_of(tests, ref("P"), env)
        assert covered == total

    def test_prefix_tests_dropped(self):
        tests = transition_cover(sequence(A, B, C))
        # the single longest test subsumes the shorter prefixes
        assert tests == [(A, B, C)]

    def test_deterministic_ordering(self):
        env = Environment().bind(
            "P", ExternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        )
        assert transition_cover(ref("P"), env) == transition_cover(ref("P"), env)

    def test_nondeterministic_model_normalised_first(self):
        process = InternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        tests = transition_cover(process)
        assert set(tests) == {(A,), (B,)}


class TestBoundedTraces:
    def test_depth_respected(self):
        env = Environment().bind("P", Prefix(A, ref("P")))
        traces = bounded_traces(ref("P"), 3, env)
        assert traces == [(A,), (A, A), (A, A, A)]

    def test_branches_enumerated(self):
        process = ExternalChoice(Prefix(A, Prefix(B, STOP)), Prefix(C, STOP))
        traces = bounded_traces(process, 2)
        assert (A,) in traces and (C,) in traces and (A, B) in traces


class TestCoverage:
    def test_partial_suite_reports_gap(self):
        env = Environment().bind(
            "P", ExternalChoice(Prefix(A, ref("P")), Prefix(B, ref("P")))
        )
        covered, total = coverage_of([(A,)], ref("P"), env)
        assert covered == 1 and total == 2

    def test_invalid_test_counts_nothing_beyond_divergence_point(self):
        env = Environment().bind("P", Prefix(A, ref("P")))
        covered, _total = coverage_of([(B,)], ref("P"), env)
        assert covered == 0
