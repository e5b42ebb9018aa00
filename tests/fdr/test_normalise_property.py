"""Property-based tests for specification normalisation.

The normalised automaton must be (a) deterministic and tau-free by
construction, (b) trace-equivalent to the original LTS, and (c) idempotent
at the trace level -- the correctness contract of the subset construction
that every refinement check depends on.  Random inputs come from the shared
:mod:`repro.quickcheck` generators; failures print the session seed and a
shrunk repro (replay via ``REPRO_SEED``).
"""

from repro.csp.lts import compile_lts
from repro.csp.traces import denotational_traces
from repro.fdr.normalise import normalise
from repro.quickcheck.gen import DEFAULT_EVENTS, process_terms
from repro.quickcheck.testing import for_all

PROCESSES = process_terms(DEFAULT_EVENTS, max_depth=4)
BOUND = 4


def normalised_traces(spec, max_length):
    """Enumerate the normalised automaton's traces up to a bound."""
    results = {()}
    frontier = [((), spec.initial)]
    for _ in range(max_length):
        next_frontier = []
        for trace, node in frontier:
            for evt, target in spec.afters[node].items():
                extended = trace + (evt,)
                if extended not in results:
                    results.add(extended)
                    if not evt.is_tick():
                        next_frontier.append((extended, target))
        frontier = next_frontier
    return results


def test_normalised_automaton_is_trace_equivalent(repro_seed):
    def check(p):
        spec = normalise(compile_lts(p))
        assert normalised_traces(spec, BOUND) == denotational_traces(p, None, BOUND)

    for_all(PROCESSES, check, seed=repro_seed, name="normalise-traces", cases=80)


def test_normalised_automaton_is_deterministic_and_tau_free(repro_seed):
    def check(p):
        lts = compile_lts(p)
        spec = normalise(lts)
        for node in range(spec.node_count):
            for evt in spec.afters[node]:
                assert not evt.is_tau()
        # the initial members must be tau-closed (closure property of the
        # construction); per-event successors are unique by the dict type
        closure = lts.tau_closure(spec.members[spec.initial])
        assert closure == spec.members[spec.initial]

    for_all(PROCESSES, check, seed=repro_seed, name="normalise-tau-free", cases=80)


def test_normalisation_is_idempotent_on_traces(repro_seed):
    """Re-normalising the determinised automaton changes nothing observable."""

    def check(p):
        spec = normalise(compile_lts(p))
        again = normalise(spec.as_lts())
        assert again.node_count <= spec.node_count
        assert normalised_traces(again, BOUND) == normalised_traces(spec, BOUND)

    for_all(PROCESSES, check, seed=repro_seed, name="normalise-idempotent", cases=60)


def test_acceptances_are_minimal_and_stable(repro_seed):
    def check(p):
        lts = compile_lts(p)
        spec = normalise(lts)
        for node in range(spec.node_count):
            acceptances = spec.acceptances[node]
            # pairwise minimality: no kept acceptance strictly contains another
            for i, first in enumerate(acceptances):
                for j, second in enumerate(acceptances):
                    if i != j:
                        assert not first < second
            # each acceptance is the offer-set of some stable member state
            stable_offers = {
                frozenset(e for e, _ in lts.successors(s))
                for s in spec.members[node]
                if lts.is_stable(s)
            }
            for acceptance in acceptances:
                assert acceptance in stable_offers

    for_all(PROCESSES, check, seed=repro_seed, name="normalise-acceptances", cases=60)
