"""Unit tests for the operational semantics (SOS rules)."""

import pytest

from repro.csp.events import Alphabet, TAU, TICK, event
from repro.csp.process import (
    Environment,
    ExternalChoice,
    GenParallel,
    Hiding,
    Interleave,
    InternalChoice,
    OMEGA,
    Prefix,
    Renaming,
    SKIP,
    STOP,
    SeqComp,
    prefix,
    ref,
)
from repro.csp.semantics import UnguardedRecursionError, initials, transitions


def events_of(process, env=None):
    return {e for e, _ in transitions(process, env or Environment())}


class TestBasicRules:
    def test_stop_has_no_transitions(self):
        assert transitions(STOP, Environment()) == []

    def test_skip_ticks_to_omega(self):
        assert transitions(SKIP, Environment()) == [(TICK, OMEGA)]

    def test_omega_has_no_transitions(self):
        assert transitions(OMEGA, Environment()) == []

    def test_prefix(self):
        a = event("a")
        assert transitions(Prefix(a, STOP), Environment()) == [(a, STOP)]

    def test_initials(self):
        a, b = event("a"), event("b")
        process = ExternalChoice(Prefix(a, STOP), Prefix(b, STOP))
        assert initials(process, Environment()) == frozenset({a, b})


class TestChoice:
    def test_external_choice_offers_both(self):
        a, b = event("a"), event("b")
        process = ExternalChoice(Prefix(a, STOP), Prefix(b, SKIP))
        moves = dict(transitions(process, Environment()))
        assert moves[a] == STOP and moves[b] == SKIP

    def test_internal_choice_is_two_taus(self):
        p, q = Prefix(event("a"), STOP), Prefix(event("b"), STOP)
        moves = transitions(InternalChoice(p, q), Environment())
        assert moves == [(TAU, p), (TAU, q)]

    def test_tau_does_not_resolve_external_choice(self):
        a, b = event("a"), event("b")
        left = InternalChoice(Prefix(a, STOP), Prefix(a, SKIP))
        right = Prefix(b, STOP)
        process = ExternalChoice(left, right)
        for evt, successor in transitions(process, Environment()):
            if evt.is_tau():
                # the right branch must still be available
                assert isinstance(successor, ExternalChoice)
                assert successor.right == right

    def test_visible_event_resolves_external_choice(self):
        a, b = event("a"), event("b")
        process = ExternalChoice(Prefix(a, STOP), Prefix(b, SKIP))
        for evt, successor in transitions(process, Environment()):
            assert successor in (STOP, SKIP)


class TestSequentialComposition:
    def test_first_runs(self):
        a = event("a")
        process = SeqComp(Prefix(a, SKIP), Prefix(event("b"), STOP))
        (evt, successor), = transitions(process, Environment())
        assert evt == a and isinstance(successor, SeqComp)

    def test_tick_becomes_tau_handoff(self):
        b = event("b")
        process = SeqComp(SKIP, Prefix(b, STOP))
        (evt, successor), = transitions(process, Environment())
        assert evt.is_tau()
        assert successor == Prefix(b, STOP)

    def test_stop_seq_never_reaches_second(self):
        process = SeqComp(STOP, Prefix(event("b"), STOP))
        assert transitions(process, Environment()) == []


class TestParallel:
    def test_sync_event_needs_both(self):
        a = event("a")
        sync = Alphabet.of(a)
        left = Prefix(a, STOP)
        right = STOP
        assert transitions(GenParallel(left, right, sync), Environment()) == []

    def test_sync_event_fires_jointly(self):
        a = event("a")
        sync = Alphabet.of(a)
        process = GenParallel(Prefix(a, STOP), Prefix(a, SKIP), sync)
        (evt, successor), = transitions(process, Environment())
        assert evt == a

    def test_free_events_interleave(self):
        a, b = event("a"), event("b")
        process = GenParallel(Prefix(a, STOP), Prefix(b, STOP), Alphabet())
        assert events_of(process) == {a, b}

    def test_tick_requires_both_sides(self):
        process = GenParallel(SKIP, STOP, Alphabet())
        assert transitions(process, Environment()) == []
        both = GenParallel(SKIP, SKIP, Alphabet())
        assert events_of(both) == {TICK}

    def test_interleave_syncs_only_on_tick(self):
        a = event("a")
        process = Interleave(Prefix(a, STOP), Prefix(a, STOP))
        # both sides can fire their own copy of a
        assert len(transitions(process, Environment())) == 2

    def test_tau_interleaves_in_parallel(self):
        a = event("a")
        left = InternalChoice(Prefix(a, STOP), STOP)
        process = GenParallel(left, STOP, Alphabet.of(a))
        assert all(evt.is_tau() for evt, _ in transitions(process, Environment()))


class TestHidingAndRenaming:
    def test_hidden_event_becomes_tau(self):
        a = event("a")
        process = Hiding(Prefix(a, STOP), Alphabet.of(a))
        (evt, _), = transitions(process, Environment())
        assert evt.is_tau()

    def test_unhidden_event_passes_through(self):
        a, b = event("a"), event("b")
        process = Hiding(Prefix(b, STOP), Alphabet.of(a))
        (evt, _), = transitions(process, Environment())
        assert evt == b

    def test_tick_is_not_hidable(self):
        process = Hiding(SKIP, Alphabet())
        (evt, _), = transitions(process, Environment())
        assert evt.is_tick()

    def test_renaming_relabels(self):
        a, b = event("a"), event("b")
        process = Renaming(Prefix(a, STOP), {a: b})
        (evt, _), = transitions(process, Environment())
        assert evt == b

    def test_renaming_leaves_others(self):
        a, b, c = event("a"), event("b"), event("c")
        process = Renaming(Prefix(c, STOP), {a: b})
        (evt, _), = transitions(process, Environment())
        assert evt == c


class TestRecursion:
    def test_reference_unwinds_without_tau(self):
        a = event("a")
        env = Environment().bind("P", Prefix(a, ref("P")))
        (evt, successor), = transitions(ref("P"), env)
        assert evt == a and successor == ref("P")

    def test_unguarded_recursion_detected(self):
        env = Environment().bind("P", ref("P"))
        with pytest.raises(UnguardedRecursionError):
            transitions(ref("P"), env)

    def test_mutual_unguarded_recursion_detected(self):
        env = Environment().bind("P", ref("Q")).bind("Q", ref("P"))
        with pytest.raises(UnguardedRecursionError):
            transitions(ref("P"), env)

    def test_guarded_mutual_recursion_ok(self):
        a, b = event("a"), event("b")
        env = Environment()
        env.bind("P", Prefix(a, ref("Q")))
        env.bind("Q", Prefix(b, ref("P")))
        (evt, successor), = transitions(ref("P"), env)
        assert evt == a and successor == ref("Q")

    def test_undefined_reference_raises_keyerror(self):
        with pytest.raises(KeyError):
            transitions(ref("NOPE"), Environment())

    def test_paper_sp02_process(self, msgs_channels):
        """SP02 = send!reqSw -> rec!rptSw -> SP02 (paper Sec. V-B)."""
        send, rec = msgs_channels
        env = Environment().bind(
            "SP02", prefix(send("reqSw"), prefix(rec("rptSw"), ref("SP02")))
        )
        (evt, successor), = transitions(ref("SP02"), env)
        assert evt == send("reqSw")
        (evt2, successor2), = transitions(successor, env)
        assert evt2 == rec("rptSw") and successor2 == ref("SP02")
