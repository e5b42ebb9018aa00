"""Tests for attack-tree cost annotations and cheapest-attack search."""

import pytest

from repro.csp.events import event
from repro.csp.process import Environment, Prefix, STOP, ref
from repro.security.attack_tree import (
    action,
    any_of,
    attack_cost,
    cheapest_feasible_attack,
    sequence_of,
)

PHYS = event("physical_access")
REMOTE = event("remote_exploit")
FLASH = event("flash_firmware")


def make_tree():
    """Two routes to flashing firmware: cheap-but-physical or costly-remote."""
    return any_of(
        sequence_of(action(PHYS, cost=10.0), action(FLASH, cost=1.0)),
        sequence_of(action(REMOTE, cost=50.0), action(FLASH, cost=1.0)),
    )


class TestCosts:
    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            action(PHYS, cost=-1.0)

    def test_default_cost_is_one(self):
        tree = sequence_of(action(PHYS), action(FLASH))
        assert attack_cost(tree, (PHYS, FLASH)) == 2.0

    def test_sequence_cost_sums_leaves(self):
        tree = make_tree()
        assert attack_cost(tree, (PHYS, FLASH)) == 11.0
        assert attack_cost(tree, (REMOTE, FLASH)) == 51.0

    def test_cheapest_leaf_wins_on_duplicates(self):
        tree = any_of(action(PHYS, cost=10.0), action(PHYS, cost=3.0))
        assert attack_cost(tree, (PHYS,)) == 3.0

    def test_foreign_event_rejected(self):
        with pytest.raises(ValueError):
            attack_cost(make_tree(), (event("ghost"),))


class TestCheapestFeasible:
    def system_allowing(self, *events):
        env = Environment()
        process = STOP
        for evt in reversed(events):
            process = Prefix(evt, process)
        env.bind("SYS", process)
        return ref("SYS"), env

    def test_picks_cheapest_of_feasible(self):
        # the system admits both routes: the physical one is cheaper
        env = Environment()
        env.bind(
            "SYS",
            Prefix(PHYS, Prefix(FLASH, STOP)).choice(
                Prefix(REMOTE, Prefix(FLASH, STOP))
            ),
        )
        result = cheapest_feasible_attack(make_tree(), ref("SYS"), env)
        assert result is not None
        sequence, cost = result
        assert sequence == (PHYS, FLASH) and cost == 11.0

    def test_expensive_route_when_cheap_blocked(self):
        # physical access is impossible (locked garage): only remote works
        system, env = self.system_allowing(REMOTE, FLASH)
        sequence, cost = cheapest_feasible_attack(make_tree(), system, env)
        assert sequence == (REMOTE, FLASH) and cost == 51.0

    def test_none_when_nothing_feasible(self):
        system, env = self.system_allowing(event("unrelated"))
        assert cheapest_feasible_attack(make_tree(), system, env) is None
