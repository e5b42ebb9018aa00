"""Property-based tests: the refinement checker against the trace semantics.

The engine's verdict on random process pairs must coincide with the
definition ``Spec ⊑T Impl iff traces(Impl) ⊆ traces(Spec)`` computed
independently from the denotational equations -- and refinement must be a
preorder.  Inputs come from the shared :mod:`repro.quickcheck` generators;
failures print the session seed and a shrunk repro (replay via
``REPRO_SEED``).
"""

from repro.csp.events import event
from repro.csp.lts import compile_lts
from repro.csp.process import STOP
from repro.csp.traces import denotational_traces
from repro.fdr.refine import check_trace_refinement
from repro.quickcheck.gen import process_terms, tuples
from repro.quickcheck.testing import for_all

# two events keep refinement genuinely two-sided: with more, random pairs
# almost never refine each other and the preorder tests check nothing
EVENTS = (event("a"), event("b"))
PROCESSES = process_terms(EVENTS)
BOUND = 5


def test_engine_agrees_with_denotational_definition(repro_seed):
    def check(pair):
        spec, impl = pair
        engine_verdict = check_trace_refinement(
            compile_lts(spec), compile_lts(impl)
        ).passed
        spec_traces = denotational_traces(spec, max_length=BOUND)
        impl_traces = denotational_traces(impl, max_length=BOUND)
        assert engine_verdict == (impl_traces <= spec_traces)

    for_all(
        tuples(PROCESSES, PROCESSES),
        check,
        seed=repro_seed,
        name="engine-vs-definition",
        cases=80,
    )


def test_refinement_reflexive(repro_seed):
    for_all(
        PROCESSES,
        lambda p: _assert_reflexive(p),
        seed=repro_seed,
        name="refinement-reflexive",
    )


def _assert_reflexive(p):
    assert check_trace_refinement(compile_lts(p), compile_lts(p)).passed


def test_refinement_transitive(repro_seed):
    def check(triple):
        p, q, r = triple
        pq = check_trace_refinement(compile_lts(p), compile_lts(q)).passed
        qr = check_trace_refinement(compile_lts(q), compile_lts(r)).passed
        if pq and qr:
            assert check_trace_refinement(compile_lts(p), compile_lts(r)).passed

    for_all(
        tuples(PROCESSES, PROCESSES, PROCESSES),
        check,
        seed=repro_seed,
        name="refinement-transitive",
        cases=40,
    )


def test_counterexample_is_genuine(repro_seed):
    """Any reported violating trace really is an impl trace the spec lacks."""

    def check(pair):
        spec, impl = pair
        result = check_trace_refinement(compile_lts(spec), compile_lts(impl))
        if result.passed:
            return
        violating = result.counterexample.full_trace
        bound = len(violating)
        assert violating in denotational_traces(impl, max_length=bound)
        assert violating not in denotational_traces(spec, max_length=bound)

    for_all(
        tuples(PROCESSES, PROCESSES),
        check,
        seed=repro_seed,
        name="counterexample-genuine",
        cases=60,
    )


def test_stop_is_refined_by_nothing_but_traces_of_stop(repro_seed):
    def check(impl):
        result = check_trace_refinement(compile_lts(STOP), compile_lts(impl))
        impl_has_events = len(denotational_traces(impl, max_length=2)) > 1
        assert result.passed == (not impl_has_events)

    for_all(PROCESSES, check, seed=repro_seed, name="stop-refines")
