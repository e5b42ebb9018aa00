"""Tests for strong-bisimulation minimisation (FDR's sbisim analogue)."""

from repro.csp.events import event
from repro.csp.lts import compile_lts, reachable_visible_traces
from repro.csp.process import (
    Environment,
    ExternalChoice,
    Prefix,
    SKIP,
    STOP,
    interleave_all,
    prefix,
    ref,
    sequence,
)
from repro.fdr.refine import check_deadlock_free, check_trace_refinement
from repro.passes.sbisim import bisimulation_classes, minimise
from repro.quickcheck.gen import process_terms, tuples
from repro.quickcheck.testing import for_all

A, B, C = event("a"), event("b"), event("c")


class TestClasses:
    def test_identical_branches_merge(self):
        # a -> STOP [] a -> STOP has structurally distinct but bisimilar parts
        process = ExternalChoice(Prefix(A, Prefix(B, STOP)), Prefix(A, Prefix(B, SKIP)))
        lts = compile_lts(process)
        classes = bisimulation_classes(lts)
        assert len(classes) <= lts.state_count

    def test_distinct_states_stay_apart(self):
        lts = compile_lts(sequence(A, B))
        assert len(bisimulation_classes(lts)) == 3

    def test_all_deadlocks_merge(self):
        process = ExternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        lts = compile_lts(process)
        minimised = minimise(lts)
        # initial + one shared deadlock class
        assert minimised.state_count == 2


class TestMinimise:
    def test_traces_preserved(self):
        process = ExternalChoice(
            Prefix(A, Prefix(B, STOP)), Prefix(C, Prefix(B, STOP))
        )
        lts = compile_lts(process)
        minimised = minimise(lts)
        assert reachable_visible_traces(lts, 4) == reachable_visible_traces(minimised, 4)

    def test_diamond_collapses(self):
        """Two parallel independent events create a diamond; the two middle
        states are NOT bisimilar (different labels) but the corners merge."""
        left = sequence(A, then=STOP)
        right = sequence(A, then=STOP)
        process = interleave_all(left, right)
        lts = compile_lts(process)
        minimised = minimise(lts)
        assert minimised.state_count < lts.state_count

    def test_verdicts_identical_after_compression(self):
        env = Environment()
        env.bind("SPEC", Prefix(A, Prefix(B, ref("SPEC"))))
        impl = ExternalChoice(
            Prefix(A, Prefix(B, ref("IMPL"))), Prefix(A, Prefix(B, ref("IMPL")))
        )
        env.bind("IMPL", impl)
        spec_lts = compile_lts(ref("SPEC"), env)
        impl_lts = compile_lts(ref("IMPL"), env)
        direct = check_trace_refinement(spec_lts, impl_lts)
        compressed = check_trace_refinement(minimise(spec_lts), minimise(impl_lts))
        assert direct.passed == compressed.passed is True

    def test_deadlock_verdict_preserved(self):
        lts = compile_lts(sequence(A, B))
        assert (
            check_deadlock_free(lts).passed
            == check_deadlock_free(minimise(lts)).passed
        )

    def test_compression_ratio(self):
        process = ExternalChoice(Prefix(A, STOP), Prefix(B, STOP))
        lts = compile_lts(process)
        minimised = minimise(lts)
        ratio = minimised.state_count / lts.state_count
        assert 0 < ratio <= 1.0

    def test_empty_ratio_guard(self):
        from repro.csp.kernel import CompactLTS

        # an LTS with no states has no classes to quotient by
        assert bisimulation_classes(CompactLTS()) == []
        minimised = minimise(CompactLTS())
        assert minimised.state_count <= 1
        assert minimised.transition_count == 0

    def test_duplicate_transitions_merged(self):
        process = ExternalChoice(Prefix(A, STOP), Prefix(A, STOP))
        minimised = minimise(compile_lts(process))
        assert minimised.transition_count == 1


#: random closed terms over a, b, c built from every operator of the grammar
PROCESSES = process_terms()


def test_property_minimisation_preserves_traces(repro_seed):
    def check(p):
        lts = compile_lts(p)
        minimised = minimise(lts)
        assert minimised.state_count <= lts.state_count
        assert reachable_visible_traces(lts, 4) == reachable_visible_traces(
            minimised, 4
        )

    for_all(
        PROCESSES, check, seed=repro_seed, name="minimise-preserves-traces", cases=60
    )


def test_property_verdicts_stable_under_compression(repro_seed):
    def check(pair):
        spec_lts, impl_lts = compile_lts(pair[0]), compile_lts(pair[1])
        direct = check_trace_refinement(spec_lts, impl_lts).passed
        compressed = check_trace_refinement(
            minimise(spec_lts), minimise(impl_lts)
        ).passed
        assert direct == compressed

    for_all(
        tuples(PROCESSES, PROCESSES),
        check,
        seed=repro_seed,
        name="verdicts-stable-under-compression",
        cases=40,
    )


def test_property_minimisation_is_idempotent(repro_seed):
    def check(p):
        minimised = minimise(compile_lts(p))
        assert minimise(minimised).state_count == minimised.state_count

    for_all(
        PROCESSES, check, seed=repro_seed, name="minimise-idempotent", cases=60
    )
