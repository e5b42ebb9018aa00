"""The shrinker: pinned regression outputs, determinism, local minimality.

The three pinned cases each start from a *seeded* generated input known to
fail a reference predicate, and assert the exact locally-minimal repro the
greedy shrinker must converge to.  If a change to the candidate order or
the generators alters any pinned output, that is a deliberate,
reviewable change -- update the pin consciously.
"""

import random

from repro.csp.events import Alphabet, event
from repro.csp.lts import compile_lts
from repro.csp.process import (
    GenParallel,
    Hiding,
    Prefix,
    Process,
    SKIP,
    STOP,
    SeqComp,
)
from repro.csp.traces import denotational_traces
from repro.fdr.refine import check_trace_refinement
from repro.quickcheck.gen import (
    CaplProgram,
    capl_programs,
    process_pairs,
    process_terms,
)
from repro.quickcheck.shrink import is_locally_minimal, shrink, shrink_candidates

A, B = event("a"), event("b")


def can_do_a(value):
    """Reference predicate 1: the term can perform the visible event ``a``."""
    try:
        return isinstance(value, Process) and (A,) in denotational_traces(
            value, None, 3
        )
    except Exception:
        return False


def refinement_fails(value):
    """Reference predicate 2: the generated pair violates ``spec [T= impl``."""
    try:
        if not (isinstance(value, tuple) and len(value) == 2):
            return False
        spec, impl = value
        return not check_trace_refinement(compile_lts(spec), compile_lts(impl)).passed
    except Exception:
        return False


def multi_output(value):
    """Reference predicate 3: the CAPL program transmits from two sites."""
    try:
        return isinstance(value, CaplProgram) and value.render().count("output(") >= 2
    except Exception:
        return False


# -- the three pinned seeded regressions ---------------------------------------------


def test_pinned_shrink_of_process_failure():
    original = process_terms()(random.Random(10))
    # the seed must keep producing a non-trivial failing input
    assert can_do_a(original)
    assert len(repr(original)) > 30
    shrunk = shrink(original, can_do_a)
    assert shrunk == Prefix(A, STOP)
    assert is_locally_minimal(shrunk, can_do_a)
    assert shrink(original, can_do_a) == shrunk  # deterministic


def test_pinned_shrink_of_refinement_failure():
    original = process_pairs()(random.Random(0))
    assert refinement_fails(original)
    shrunk = shrink(original, refinement_fails)
    # SKIP's tick is the smallest visible behaviour STOP cannot match
    assert shrunk == (STOP, SKIP)
    assert is_locally_minimal(shrunk, refinement_fails)
    assert shrink(original, refinement_fails) == shrunk


def test_pinned_shrink_of_capl_failure():
    original = capl_programs()(random.Random(0))
    assert multi_output(original)
    assert len(original.handlers) == 2
    shrunk = shrink(original, multi_output)
    # locally minimal: both branches transmit, so no single drop/splice
    # preserves two output sites
    assert shrunk == CaplProgram(
        [("reqB", (("ifelse", (("output", "rspY"),), (("output", "rspX"),)),))]
    )
    assert is_locally_minimal(shrunk, multi_output)
    assert shrink(original, multi_output) == shrunk


# -- candidate enumeration -----------------------------------------------------------


def test_process_candidates_start_with_the_smallest_terms():
    term = SeqComp(Prefix(A, SKIP), Prefix(B, STOP))
    candidates = list(shrink_candidates(term))
    assert candidates[0] == STOP
    assert candidates[1] == SKIP
    assert Prefix(A, SKIP) in candidates  # hoisted children
    assert Prefix(B, STOP) in candidates


def test_alphabet_candidates_drop_one_event():
    term = Hiding(Prefix(A, STOP), Alphabet.of(A, B))
    hidings = [c for c in shrink_candidates(term) if isinstance(c, Hiding)]
    hidden_sets = {frozenset(c.hidden) for c in hidings}
    assert frozenset({A}) in hidden_sets
    assert frozenset({B}) in hidden_sets


def test_parallel_candidates_thin_the_sync_set():
    term = GenParallel(STOP, STOP, Alphabet.of(A, B))
    parallels = [c for c in shrink_candidates(term) if isinstance(c, GenParallel)]
    assert {frozenset(c.sync) for c in parallels} == {
        frozenset({A}),
        frozenset({B}),
    }


def test_leaves_have_no_candidates():
    assert list(shrink_candidates(STOP)) == []
    assert list(shrink_candidates(SKIP)) == []
    assert list(shrink_candidates("reqA")) == []  # strings are atomic


def test_int_candidates_move_toward_zero():
    assert list(shrink_candidates(8)) == [0, 4, 7]
    assert list(shrink_candidates(0)) == []
    assert list(shrink_candidates(True)) == []  # bools are not ints to shrink


def test_list_candidates_drop_before_shrinking_elements():
    candidates = list(shrink_candidates([3, 5]))
    assert candidates[0] == [5]
    assert candidates[1] == [3]
    assert [0, 5] in candidates and [3, 0] in candidates


def test_capl_program_candidates_keep_at_least_one_handler():
    program = CaplProgram([("reqA", (("noop",),)), ("reqB", ())])
    for candidate in shrink_candidates(program):
        assert candidate.handlers


def test_shrink_respects_the_budget():
    calls = []

    def expensive(value):
        calls.append(value)
        return value != 0  # only zero passes, so shrink walks many candidates

    shrink(10**6, expensive, budget=5)
    assert len(calls) <= 5


def test_shrink_returns_input_when_nothing_smaller_fails():
    minimal = Prefix(A, STOP)
    assert shrink(minimal, can_do_a) == minimal
