"""Each pass is a semantic equivalence: traces, deadlock, divergence, tick.

The compression differential oracle fuzzes the same claims; these tests pin
the targeted constructions -- tau cycles, inert chains, and the terminated
state -- deterministically.
"""

import pytest

from repro.csp.events import Alphabet, TAU_ID, event
from repro.csp.lts import compile_lts, reachable_visible_traces
from repro.csp.process import (
    Environment,
    ExternalChoice,
    Hiding,
    InternalChoice,
    Prefix,
    SKIP,
    STOP,
    prefix,
    ref,
)
from repro.fdr.refine import (
    check_deadlock_free,
    check_divergence_free,
)
from repro.engine.plan import PASSES
from repro.passes.base import terminated_states

A, B, C = event("a"), event("b"), event("c")

#: every registered pass that is an equivalence in all models
_FD_PASSES = ["dead", "tau_loop", "diamond", "sbisim"]


def _divergent_process():
    """``(P = a -> P) \\ {a}`` -- a single divergent tau loop."""
    env = Environment()
    env.bind("P", prefix(A, ref("P")))
    return compile_lts(Hiding(ref("P"), Alphabet([A])), env)


def _inert_chain():
    """Hiding a leading prefix chain leaves inert tau states."""
    return compile_lts(
        Hiding(Prefix(A, Prefix(B, Prefix(C, STOP))), Alphabet([A, B]))
    )


@pytest.mark.parametrize("name", _FD_PASSES)
class TestEveryFdPass:
    def test_traces_preserved(self, name):
        for lts in (_divergent_process(), _inert_chain()):
            rewritten, _ = PASSES[name].rewrite(lts)
            assert reachable_visible_traces(rewritten, 4) == (
                reachable_visible_traces(lts, 4)
            )

    def test_deadlock_verdict_preserved(self, name):
        for term in (
            Prefix(A, STOP),
            Prefix(A, SKIP),
            InternalChoice(SKIP, STOP),
            InternalChoice(Prefix(A, SKIP), Prefix(A, STOP)),
        ):
            lts = compile_lts(term)
            rewritten, _ = PASSES[name].rewrite(lts)
            assert (
                check_deadlock_free(rewritten).passed
                == check_deadlock_free(lts).passed
            ), "{} changed the deadlock verdict of {!r}".format(name, term)

    def test_divergence_verdict_preserved(self, name):
        for lts in (_divergent_process(), _inert_chain()):
            rewritten, _ = PASSES[name].rewrite(lts)
            assert (
                check_divergence_free(rewritten).passed
                == check_divergence_free(lts).passed
            )

    def test_provenance_names_valid_input_states(self, name):
        lts = _inert_chain()
        rewritten, new_to_old = PASSES[name].rewrite(lts)
        assert len(new_to_old) == rewritten.state_count
        assert all(0 <= old < lts.state_count for old in new_to_old)


class TestTauLoop:
    def test_divergent_component_collapses_to_self_loop(self):
        lts = _divergent_process()
        rewritten, _ = PASSES["tau_loop"].rewrite(lts)
        assert rewritten.state_count == 1
        assert rewritten.successors_ids(0) == [(TAU_ID, 0)]


class TestDiamond:
    def test_inert_chain_collapses(self):
        lts = _inert_chain()
        rewritten, _ = PASSES["diamond"].rewrite(lts)
        assert rewritten.state_count < lts.state_count
        assert reachable_visible_traces(rewritten, 4) == (
            reachable_visible_traces(lts, 4)
        )

    def test_tau_into_terminated_state_is_not_inert(self):
        # SKIP |~| STOP: the initial state's taus resolve the choice; the
        # deadlocked branch must not be folded into the tick target
        lts = compile_lts(InternalChoice(SKIP, STOP))
        rewritten, _ = PASSES["diamond"].rewrite(lts)
        assert not check_deadlock_free(rewritten).passed


class TestSbisim:
    def test_terminated_and_stuck_states_stay_apart(self):
        # both states refuse everything, but one of them terminated; the
        # quotient keeping them apart is what keeps deadlock checks sound
        lts = compile_lts(InternalChoice(SKIP, STOP))
        rewritten, _ = PASSES["sbisim"].rewrite(lts)
        assert len(terminated_states(rewritten)) == 1
        stuck = [
            state
            for state in range(rewritten.state_count)
            if not rewritten.successors_ids(state)
            and state not in terminated_states(rewritten)
        ]
        assert stuck, "the deadlocked branch was merged away"
        assert not check_deadlock_free(rewritten).passed

    def test_bisimilar_branches_merge(self):
        # a -> STOP and (a -> STOP [] a -> STOP) are structurally distinct
        # (hash-consing keeps them separate terms) but strongly bisimilar
        term = InternalChoice(
            Prefix(A, STOP), ExternalChoice(Prefix(A, STOP), Prefix(A, STOP))
        )
        lts = compile_lts(term)
        assert lts.state_count == 4
        rewritten, _ = PASSES["sbisim"].rewrite(lts)
        assert rewritten.state_count == 3
