"""Attack trees: the paper's SP-graph semantics and CSP equivalence.

Reproduces the Sec. IV-E claim that an attack tree translates into a
semantically equivalent CSP process -- including a property-based test that
the tree's ``(.)`` action-sequence semantics coincides with the *completed*
traces of the generated process on random trees.
"""

import pytest

from repro.csp.events import Alphabet, TICK, event
from repro.csp.lts import compile_lts
from repro.csp.process import Environment, GenParallel, Prefix, SKIP, STOP, prefix, ref
from repro.csp.traces import denotational_traces
from repro.quickcheck.gen import Gen
from repro.quickcheck.testing import for_all
from repro.security.attack_tree import (
    ActionNode,
    AndNode,
    OrNode,
    SeqNode,
    action,
    all_of,
    any_of,
    feasible_attacks,
    sequence_of,
)

A, B, C, D = (event(x) for x in "abcd")


def completed_traces(tree, max_length=8):
    """Traces of to_process() that end in tick, tick stripped."""
    process = tree.to_process()
    traces = denotational_traces(process, max_length=max_length)
    return {tr[:-1] for tr in traces if tr and tr[-1].is_tick()}


class TestSemantics:
    def test_leaf(self):
        assert ActionNode(A).sequences() == {(A,)}

    def test_sequential_composition(self):
        tree = SeqNode(ActionNode(A), ActionNode(B))
        assert tree.sequences() == {(A, B)}

    def test_parallel_interleaves(self):
        tree = AndNode(ActionNode(A), ActionNode(B))
        assert tree.sequences() == {(A, B), (B, A)}

    def test_or_is_union(self):
        tree = OrNode([ActionNode(A), ActionNode(B)])
        assert tree.sequences() == {(A,), (B,)}

    def test_nested_example(self):
        # (a . b) || c  -- paper-style SP graph
        tree = AndNode(SeqNode(ActionNode(A), ActionNode(B)), ActionNode(C))
        assert tree.sequences() == {(A, B, C), (A, C, B), (C, A, B)}

    def test_nary_helpers(self):
        assert sequence_of(action(A), action(B), action(C)).sequences() == {(A, B, C)}
        assert any_of(action(A), action(B)).sequences() == {(A,), (B,)}
        assert len(all_of(action(A), action(B), action(C)).sequences()) == 6

    def test_actions_collects_leaves(self):
        tree = any_of(sequence_of(action(A), action(B)), action(C))
        assert tree.actions() == frozenset({A, B, C})

    def test_invisible_action_rejected(self):
        with pytest.raises(ValueError):
            ActionNode(TICK)

    def test_empty_or_rejected(self):
        with pytest.raises(ValueError):
            OrNode([])

    def test_combinator_sugar(self):
        tree = action(A).then(action(B)).otherwise(action(C))
        assert tree.sequences() == {(A, B), (C,)}
        both = action(A).alongside(action(B))
        assert both.sequences() == {(A, B), (B, A)}


class TestCspEquivalence:
    """The paper's claim: tree semantics == completed process traces."""

    def test_leaf_process(self):
        assert completed_traces(ActionNode(A)) == {(A,)}

    def test_seq_process(self):
        tree = sequence_of(action(A), action(B))
        assert completed_traces(tree) == tree.sequences()

    def test_and_process(self):
        tree = all_of(action(A), action(B))
        assert completed_traces(tree) == tree.sequences()

    def test_or_process(self):
        tree = any_of(sequence_of(action(A), action(B)), action(C))
        assert completed_traces(tree) == tree.sequences()


def attack_trees(max_leaves=4):
    """Random series-parallel trees over actions a-d, at most *max_leaves*."""
    leaves = [action(A), action(B), action(C), action(D)]
    operators = [SeqNode, AndNode, lambda left, right: OrNode([left, right])]

    def draw(rng, budget):
        if budget < 2 or rng.random() < 0.3:
            return leaves[rng.randrange(len(leaves))]
        split = rng.randint(1, budget - 1)
        operator = operators[rng.randrange(len(operators))]
        return operator(draw(rng, split), draw(rng, budget - split))

    return Gen(lambda rng: draw(rng, max_leaves))


def test_property_semantic_equivalence(repro_seed):
    """(tree) == completed traces of tree.to_process(), on random SP graphs."""

    def check(tree):
        sequences = tree.sequences()
        longest = max(len(s) for s in sequences)
        assert completed_traces(tree, max_length=longest + 1) == sequences

    for_all(
        attack_trees(), check, seed=repro_seed, name="attack-tree-semantics", cases=50
    )


def test_property_sequences_nonempty_and_alphabet_closed(repro_seed):
    def check(tree):
        sequences = tree.sequences()
        assert sequences
        allowed = tree.actions()
        for sequence in sequences:
            assert set(sequence) <= set(allowed)

    for_all(
        attack_trees(),
        check,
        seed=repro_seed,
        name="attack-tree-sequences",
        cases=50,
    )


class TestFeasibility:
    def make_system(self):
        """A system that allows a -> b but never c."""
        env = Environment()
        env.bind("SYS", Prefix(A, Prefix(B, ref("SYS"))))
        return ref("SYS"), env

    def test_feasible_attack_found(self):
        system, env = self.make_system()
        tree = sequence_of(action(A), action(B))
        assert feasible_attacks(tree, system, env) == [(A, B)]

    def test_infeasible_attack_excluded(self):
        system, env = self.make_system()
        tree = any_of(action(C), sequence_of(action(A), action(B)))
        feasible = feasible_attacks(tree, system, env)
        assert (C,) not in feasible
        assert (A, B) in feasible

    def test_results_sorted_shortest_first(self):
        system, env = self.make_system()
        tree = any_of(action(A), sequence_of(action(A), action(B)))
        assert feasible_attacks(tree, system, env) == [(A,), (A, B)]
