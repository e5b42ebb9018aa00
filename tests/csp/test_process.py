"""Unit tests for the process-term AST and its combinators."""

import pytest

from repro.csp.events import Alphabet, Channel, TAU, TICK, event
from repro.csp.process import (
    Environment,
    ExternalChoice,
    GenParallel,
    Hiding,
    Interleave,
    InternalChoice,
    Prefix,
    ProcessRef,
    Renaming,
    SKIP,
    STOP,
    SeqComp,
    external_choice,
    input_choice,
    interleave_all,
    internal_choice,
    prefix,
    ref,
    sequence,
)


class TestConstruction:
    def test_prefix_rejects_reserved_events(self):
        with pytest.raises(ValueError):
            Prefix(TAU, STOP)
        with pytest.raises(ValueError):
            Prefix(TICK, STOP)

    def test_nodes_are_immutable(self):
        p = Prefix(event("a"), STOP)
        with pytest.raises(AttributeError):
            p.event = event("b")
        choice = ExternalChoice(STOP, SKIP)
        with pytest.raises(AttributeError):
            choice.left = SKIP

    def test_structural_equality(self):
        a = event("a")
        assert Prefix(a, STOP) == Prefix(a, STOP)
        assert ExternalChoice(STOP, SKIP) == ExternalChoice(STOP, SKIP)
        assert ExternalChoice(STOP, SKIP) != ExternalChoice(SKIP, STOP)
        assert Prefix(a, STOP) != Prefix(a, SKIP)

    def test_different_operators_not_equal(self):
        assert ExternalChoice(STOP, SKIP) != InternalChoice(STOP, SKIP)
        assert Interleave(STOP, SKIP) != GenParallel(STOP, SKIP, Alphabet())

    def test_hashable(self):
        a = event("a")
        terms = {Prefix(a, STOP), Prefix(a, STOP), STOP}
        assert len(terms) == 2

    def test_renaming_validates_events(self):
        with pytest.raises(ValueError):
            Renaming(STOP, {TAU: event("a")})
        with pytest.raises(ValueError):
            Renaming(STOP, {event("a"): TICK})

    def test_renaming_rename_event(self):
        renaming = Renaming(STOP, {event("a"): event("b")})
        assert renaming.rename_event(event("a")) == event("b")
        assert renaming.rename_event(event("c")) == event("c")

    def test_process_ref_requires_name(self):
        with pytest.raises(ValueError):
            ProcessRef("")


class TestCombinatorHelpers:
    def test_sequence_builds_nested_prefixes(self):
        a, b = event("a"), event("b")
        assert sequence(a, b, then=SKIP) == Prefix(a, Prefix(b, SKIP))

    def test_sequence_defaults_to_stop(self):
        assert sequence(event("a")) == Prefix(event("a"), STOP)

    def test_external_choice_nary(self):
        p, q, r = (Prefix(event(x), STOP) for x in "abc")
        assert external_choice(p, q, r) == ExternalChoice(p, ExternalChoice(q, r))

    def test_external_choice_empty_is_stop(self):
        assert external_choice() == STOP

    def test_external_choice_single(self):
        p = Prefix(event("a"), STOP)
        assert external_choice(p) == p

    def test_internal_choice_requires_branch(self):
        with pytest.raises(ValueError):
            internal_choice()

    def test_interleave_all_empty_is_skip(self):
        assert interleave_all() == SKIP

    def test_fluent_methods(self):
        p = Prefix(event("a"), STOP)
        q = Prefix(event("b"), STOP)
        assert p.choice(q) == ExternalChoice(p, q)
        assert p.then(q) == SeqComp(p, q)
        assert p.interleave(q) == Interleave(p, q)
        sync = Alphabet.of(event("a"))
        assert p.par(q, sync) == GenParallel(p, q, sync)
        assert p.hide(sync) == Hiding(p, sync)

    def test_input_choice_expands_domain(self):
        channel = Channel("c", ["x", "y"])
        process = input_choice(channel, lambda v: STOP)
        assert process == ExternalChoice(
            Prefix(channel("x"), STOP), Prefix(channel("y"), STOP)
        )

    def test_input_choice_with_filter(self):
        channel = Channel("c", ["x", "y"])
        process = input_choice(channel, lambda v: STOP, where=lambda v: v == "y")
        assert process == Prefix(channel("y"), STOP)

    def test_input_choice_empty_filter_is_stop(self):
        channel = Channel("c", ["x"])
        assert input_choice(channel, lambda v: STOP, where=lambda v: False) == STOP


class TestEnvironment:
    def test_bind_and_resolve(self):
        env = Environment()
        env.bind("P", STOP)
        assert env.resolve("P") == STOP

    def test_missing_name_lists_available(self):
        env = Environment().bind("KNOWN", STOP)
        with pytest.raises(KeyError, match="KNOWN"):
            env.resolve("MISSING")

    def test_contains(self):
        env = Environment().bind("P", STOP)
        assert "P" in env and "Q" not in env

    def test_copy_is_independent(self):
        env = Environment().bind("P", STOP)
        copy = env.copy()
        copy.bind("Q", SKIP)
        assert "Q" not in env

    def test_merged_prefers_other(self):
        left = Environment().bind("P", STOP)
        right = Environment().bind("P", SKIP).bind("Q", STOP)
        merged = left.merged(right)
        assert merged.resolve("P") == SKIP
        assert set(merged.names()) == {"P", "Q"}

    def test_ref_helper(self):
        assert ref("P") == ProcessRef("P")
