"""Property-based validation of the stable-failures model.

Mirrors the trace-model validation: the denotational failure equations
(:mod:`repro.csp.failures`) and the operational semantics must produce
identical bounded failure sets on random processes, and the ``[F=`` engine's
verdict must coincide with the definition

    Spec [F= Impl  iff  traces(Impl) ⊆ traces(Spec)
                        and failures(Impl) ⊆ failures(Spec).

Random inputs come from the shared :mod:`repro.quickcheck` generators;
failures print the session seed and a shrunk repro (replay via
``REPRO_SEED``).
"""

from repro.csp.events import Alphabet, event
from repro.csp.failures import denotational_failures, lts_failures
from repro.csp.lts import compile_lts
from repro.csp.traces import denotational_traces
from repro.fdr.refine import check_failures_refinement
from repro.quickcheck.gen import process_terms, tuples
from repro.quickcheck.testing import for_all

A, B = event("a"), event("b")
SIGMA = Alphabet.of(A, B)
# the denotational failures equations do not cover Interrupt, so keep it
# out of the draw (the operational/engine oracles elsewhere still fuzz it)
PROCESSES = process_terms((A, B), with_interrupt=False)
BOUND = 3


def test_operational_failures_equal_denotational(repro_seed):
    def check(p):
        denotational = denotational_failures(p, SIGMA, None, BOUND)
        operational = lts_failures(compile_lts(p), SIGMA, BOUND)
        assert denotational == operational

    for_all(PROCESSES, check, seed=repro_seed, name="failures-op-vs-denot", cases=80)


def test_engine_agrees_with_failures_definition(repro_seed):
    def check(pair):
        spec, impl = pair
        engine = check_failures_refinement(
            compile_lts(spec), compile_lts(impl)
        ).passed
        spec_traces = denotational_traces(spec, None, BOUND)
        impl_traces = denotational_traces(impl, None, BOUND)
        spec_failures = denotational_failures(spec, SIGMA, None, BOUND)
        impl_failures = denotational_failures(impl, SIGMA, None, BOUND)
        definition = impl_traces <= spec_traces and impl_failures <= spec_failures
        assert engine == definition

    for_all(
        tuples(PROCESSES, PROCESSES),
        check,
        seed=repro_seed,
        name="failures-engine-vs-definition",
        cases=60,
    )


def test_failures_are_downward_closed(repro_seed):
    def check(p):
        failures = denotational_failures(p, SIGMA, None, BOUND)
        for trace, refusal in failures:
            for element in refusal:
                assert (trace, refusal - {element}) in failures

    for_all(PROCESSES, check, seed=repro_seed, name="failures-downward-closed")


def test_failure_traces_are_traces(repro_seed):
    def check(p):
        failures = denotational_failures(p, SIGMA, None, BOUND)
        traces = denotational_traces(p, None, BOUND)
        for trace, _refusal in failures:
            assert trace in traces

    for_all(PROCESSES, check, seed=repro_seed, name="failure-traces-are-traces")
