"""Property-based tests: the algebraic laws of CSP on random process terms.

The shared :mod:`repro.quickcheck` generators produce random finite process
terms; every registered law from :mod:`repro.csp.laws` must hold as bounded
trace equivalence, and a clutch of model-level invariants (prefix closure,
refinement partial order) must hold for every generated process.  Failures
print the session seed and a shrunk repro; replay with ``REPRO_SEED``.
"""

import pytest

from repro.csp.events import event
from repro.csp.laws import LAW_OPERANDS, LAWS, check_law, traces_equal
from repro.csp.lts import compile_lts, reachable_visible_traces
from repro.csp.process import Hiding, Prefix, STOP
from repro.csp.traces import denotational_traces
from repro.quickcheck.gen import DEFAULT_EVENTS, process_terms, sub_alphabets, tuples
from repro.quickcheck.testing import for_all

EVENTS = DEFAULT_EVENTS
BOUND = 4

PROCESSES = process_terms(EVENTS)
ALPHABETS = sub_alphabets(EVENTS)


def _operand_gen(signature):
    return tuples(
        *(PROCESSES if kind == "p" else ALPHABETS for kind in signature)
    )


@pytest.mark.parametrize("law_name", sorted(LAWS))
def test_law_holds_on_random_operands(law_name, repro_seed):
    """Each registered law, instantiated with random operands, must hold."""
    signature = LAW_OPERANDS[law_name]
    bound = 3 if len(signature) >= 3 else BOUND
    for_all(
        _operand_gen(signature),
        lambda operands: _assert_law(law_name, operands, bound),
        seed=repro_seed,
        name="law-" + law_name,
        cases=30 if len(signature) >= 3 else 50,
    )


def _assert_law(law_name, operands, bound):
    assert check_law(law_name, *operands, max_length=bound), law_name


# -- model-level invariants -------------------------------------------------------


def test_trace_sets_are_prefix_closed(repro_seed):
    def check(p):
        traces = denotational_traces(p, max_length=BOUND)
        for trace in traces:
            for cut in range(len(trace)):
                assert trace[:cut] in traces

    for_all(PROCESSES, check, seed=repro_seed, name="prefix-closed")


def test_empty_trace_always_present(repro_seed):
    for_all(
        PROCESSES,
        lambda p: _assert_empty_trace(p),
        seed=repro_seed,
        name="empty-trace",
    )


def _assert_empty_trace(p):
    assert () in denotational_traces(p, max_length=BOUND)


def test_operational_equals_denotational(repro_seed):
    def check(p):
        lts = compile_lts(p)
        assert reachable_visible_traces(lts, BOUND) == denotational_traces(
            p, max_length=BOUND
        )

    for_all(PROCESSES, check, seed=repro_seed, name="op-vs-denot", cases=40)


def test_hiding_everything_leaves_only_tick_traces(repro_seed):
    from repro.csp.events import Alphabet

    full = Alphabet(EVENTS)

    def check(p):
        hidden = Hiding(p, full)
        for trace in denotational_traces(hidden, max_length=BOUND):
            assert all(e.is_tick() for e in trace)

    for_all(PROCESSES, check, seed=repro_seed, name="hide-all", cases=40)


# -- registry consistency ---------------------------------------------------------


def test_every_registered_law_has_an_operand_signature():
    """Keep the law registry and the operand table in sync."""
    assert set(LAW_OPERANDS) == set(LAWS)
    for name, signature in LAW_OPERANDS.items():
        assert signature and all(kind in "pA" for kind in signature), name


def test_traces_equal_helper_detects_difference():
    assert not traces_equal(Prefix(event("a"), STOP), STOP)
