"""Unit tests for Dolev-Yao intruder construction and composition."""

import pytest

from repro import api
from repro.csp.events import Alphabet, Channel, event
from repro.csp.lts import compile_lts
from repro.csp.process import (
    Environment,
    GenParallel,
    Prefix,
    ProcessRef,
    STOP,
    prefix,
    ref,
)
from repro.security.intruder import (
    IntruderBuilder,
    knowledge_lattice_size,
    replay_attacker,
)
from repro.security.properties import never_occurs, run_process


def make_channels(payloads=("m1", "m2")):
    return Channel("net", payloads), Channel("fake", payloads)


class TestBuilder:
    def test_requires_channels(self):
        with pytest.raises(ValueError):
            IntruderBuilder([], [], ["m"])

    def test_requires_unary_channels(self):
        wide = Channel("w", ["a"], ["b"])
        with pytest.raises(ValueError):
            IntruderBuilder([wide], [], ["a"])

    def test_initial_process_name_reflects_knowledge(self):
        net, fake = make_channels()
        env = Environment()
        initial = IntruderBuilder([net], [fake], ["m1", "m2"], ["m1"]).build(env)
        assert "m1" in initial.name

    def test_empty_knowledge_cannot_inject(self):
        net, fake = make_channels()
        env = Environment()
        intruder = IntruderBuilder([net], [fake], ["m1", "m2"]).build(env)
        lts = compile_lts(intruder, env)
        # no fake.* transition available before anything is overheard
        assert all(
            e.channel != "fake" for e in lts.initials(lts.initial) if e.is_visible()
        )

    def test_learning_enables_injection(self):
        net, fake = make_channels()
        env = Environment()
        intruder = IntruderBuilder([net], [fake], ["m1", "m2"]).build(env)
        lts = compile_lts(intruder, env)
        assert lts.walk([net("m1"), fake("m1")]) is not None
        # but never something it has not heard
        assert lts.walk([net("m1"), fake("m2")]) is None

    def test_initial_knowledge_injectable_immediately(self):
        net, fake = make_channels()
        env = Environment()
        intruder = IntruderBuilder([net], [fake], ["m1", "m2"], ["m2"]).build(env)
        lts = compile_lts(intruder, env)
        assert lts.walk([fake("m2")]) is not None

    def test_knowledge_is_monotone(self):
        net, fake = make_channels()
        env = Environment()
        intruder = IntruderBuilder([net], [fake], ["m1", "m2"]).build(env)
        lts = compile_lts(intruder, env)
        # after hearing both, both are injectable, repeatedly (no forgetting)
        trace = [net("m1"), net("m2"), fake("m1"), fake("m2"), fake("m1")]
        assert lts.walk(trace) is not None

    def test_lattice_size_helper(self):
        assert knowledge_lattice_size(4) == 16


class TestComposition:
    def test_intruder_exposes_injection_attack(self):
        """A system that only ever sends m1 legitimately, but accepts fakes:
        composed with the intruder knowing m2, the forbidden m2 arrives."""
        net, fake = make_channels()
        boom = Channel("boom", ["m1", "m2"])
        env = Environment()
        # victim: accepts from net or fake, raises boom with the payload
        branches = []
        for channel in (net, fake):
            for payload in ("m1", "m2"):
                branches.append(
                    Prefix(channel(payload), Prefix(boom(payload), ref("VICTIM")))
                )
        from repro.csp.process import external_choice

        env.bind("VICTIM", external_choice(*branches))
        builder = IntruderBuilder([net], [fake], ["m1", "m2"], ["m2"])
        attacked = builder.compose_with(ref("VICTIM"), env)
        alphabet = net.alphabet() | fake.alphabet() | boom.alphabet()
        spec = never_occurs([boom("m2")], alphabet, env, "NOM2")
        result = api.check_refinement(spec, attacked, "T", env=env)
        assert not result.passed
        assert result.counterexample.forbidden == boom("m2")

    def test_sync_set_includes_both_channel_families(self):
        net, fake = make_channels()
        env = Environment()
        builder = IntruderBuilder([net], [fake], ["m1", "m2"])
        attacked = builder.compose_with(STOP, env)
        assert net("m1") in attacked.sync and fake("m1") in attacked.sync


class TestReplayAttacker:
    def test_fixed_script(self):
        net, _ = make_channels()
        env = Environment()
        attacker = replay_attacker(net, ["m1", "m1", "m2"], env)
        lts = compile_lts(attacker, env)
        assert lts.walk([net("m1"), net("m1"), net("m2")]) is not None
        assert lts.walk([net("m2")]) is None

    def test_stops_after_script(self):
        net, _ = make_channels()
        env = Environment()
        attacker = replay_attacker(net, ["m1"], env, name="R2")
        lts = compile_lts(attacker, env)
        states = lts.walk([net("m1")])
        assert states is not None
        assert all(not lts.successors(s) for s in states)


class TestDeducingIntruder:
    def test_mac_cannot_be_forged(self):
        from repro.security.crypto import key, mac

        k = key("k")
        payloads = [("m", mac(k, "m")), ("m", "forged")]
        net = Channel("net", payloads)
        fake = Channel("fake", payloads)
        env = Environment()
        builder = IntruderBuilder(
            [net], [fake], payloads, [("m", "forged")], deduce=True
        )
        intruder = builder.build(env)
        lts = compile_lts(intruder, env)
        assert lts.walk([fake(("m", "forged"))]) is not None
        assert lts.walk([fake(("m", mac(k, "m")))]) is None
        # replay after overhearing is possible
        assert lts.walk([net(("m", mac(k, "m"))), fake(("m", mac(k, "m")))]) is not None
