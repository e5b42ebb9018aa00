#!/usr/bin/env python3
"""Second case study: UDS SecurityAccess (ISO 14229 service 0x27).

Diagnostic tools unlock protected ECU functions with a seed/key handshake:
the tester requests a *seed*, computes a *key* with a secret algorithm, and
the ECU unlocks if the key matches.  A classic implementation flaw is a weak
seed source -- an ECU that hands out the same seed every session is open to
trivial replay.

This example models the handshake with the library's symbolic crypto and
Dolev-Yao intruder at two quality levels:

* ``weak``  -- the ECU always issues the same seed: an eavesdropper who saw
  one successful unlock replays the recorded key and gets in (ATTACK FOUND),
* ``fresh`` -- the ECU cycles through fresh seeds: the recorded key is stale
  and the intruder stays locked out (PASSED).

Run:  python examples/uds_security_access.py
"""

from repro import api
from repro.csp.events import Alphabet, Channel
from repro.csp.process import Environment, GenParallel, Prefix, external_choice, ref
from repro.security.crypto import key, mac
from repro.security.intruder import IntruderBuilder

#: the OEM's secret key-derivation secret (never on the wire)
ALGORITHM_SECRET = key("k_uds_algo")

SEEDS = ("s1", "s2")


def expected_key(seed):
    """key = F(seed): modelled as a MAC under the secret algorithm."""
    return mac(ALGORITHM_SECRET, seed)


def build_uds_model(weak_seed: bool):
    """The tester/ECU handshake plus an eavesdropping+injecting intruder."""
    env = Environment()
    key_terms = [expected_key(seed) for seed in SEEDS] + ["badkey"]
    # wire channels: tester -> ECU requests, ECU -> tester responses,
    # attacker injections, and the security-relevant ECU action
    seed_req = Channel("seedReq", ["go"])
    seed_rsp = Channel("seedRsp", SEEDS)
    key_send = Channel("keySend", key_terms)
    fake_key = Channel("fakeKey", key_terms)
    unlock = Channel("unlock", SEEDS)

    # -- ECU: LOCKED -> issue seed -> WAIT(seed) -> verify key
    def wait_state(seed) -> str:
        return "UDS_WAIT_{}".format(seed)

    def locked_state(index: int) -> str:
        return "UDS_LOCKED_{}".format(index)

    for index, seed in enumerate(SEEDS):
        issued = seed if not weak_seed else SEEDS[0]
        next_index = (index + 1) % len(SEEDS) if not weak_seed else 0
        env.bind(
            locked_state(index),
            Prefix(
                seed_req("go"),
                Prefix(seed_rsp(issued), ref(wait_state(issued))),
            ),
        )
        branches = []
        for channel in (key_send, fake_key):
            for key_term in key_terms:
                if key_term == expected_key(seed):
                    branches.append(
                        Prefix(
                            channel(key_term),
                            Prefix(unlock(seed), ref(locked_state(next_index))),
                        )
                    )
                else:
                    branches.append(
                        Prefix(channel(key_term), ref(locked_state(next_index)))
                    )
        env.bind(wait_state(seed), external_choice(*branches))
    env.bind("UDS_ECU", ref(locked_state(0)))

    # -- honest tester: one complete legitimate unlock, then done
    first_seed = SEEDS[0]
    env.bind(
        "UDS_TESTER",
        Prefix(
            seed_req("go"),
            Prefix(
                seed_rsp(first_seed),
                Prefix(key_send(expected_key(first_seed)), ref("UDS_TESTER_DONE")),
            ),
        ),
    )
    # afterwards the tester only keeps re-requesting seeds (e.g. a second
    # session) without sending keys -- the window the attacker exploits
    env.bind(
        "UDS_TESTER_DONE",
        Prefix(seed_req("go"), Prefix(seed_rsp(first_seed if weak_seed else SEEDS[1]),
                                      ref("UDS_TESTER_DONE"))),
    )

    tester_sync = (
        seed_req.alphabet() | seed_rsp.alphabet() | key_send.alphabet()
    )
    honest = GenParallel(ref("UDS_TESTER"), ref("UDS_ECU"), tester_sync)
    env.bind("UDS_HONEST", honest)

    # -- the intruder eavesdrops on seeds and legitimate keys, injects fakes
    builder = IntruderBuilder(
        listen_channels=[key_send],
        inject_channels=[fake_key],
        universe=key_terms,
        initial_knowledge=["badkey"],
    )
    attacked = builder.compose_with(ref("UDS_HONEST"), env)
    env.bind("UDS_ATTACKED", attacked)

    alphabet = (
        tester_sync | fake_key.alphabet() | unlock.alphabet()
    )
    return env, key_send, fake_key, unlock, alphabet


def analyse(weak_seed: bool):
    """Injective agreement: each legitimate key transmission authorises at
    most one unlock of its seed.  A replayed key produces a second unlock
    without a second legitimate send -- the violation to find."""
    from repro.csp.process import Hiding

    env, key_send, fake_key, unlock, alphabet = build_uds_model(weak_seed)
    first_seed = SEEDS[0]
    legit_key = key_send(expected_key(first_seed))
    unlock_event = unlock(first_seed)
    keep = Alphabet.of(legit_key, unlock_event)
    projected = Hiding(ref("UDS_ATTACKED"), alphabet - keep)
    label = "UDS_AGREE_{}".format("weak" if weak_seed else "fresh")
    env.bind(
        label + "_0",
        Prefix(legit_key, ref(label + "_1")),
    )
    env.bind(
        label + "_1",
        external_choice(
            Prefix(legit_key, ref(label + "_2")),
            Prefix(unlock_event, ref(label + "_0")),
        ),
    )
    env.bind(
        label + "_2",
        Prefix(unlock_event, ref(label + "_1")),
    )
    return api.check_refinement(
        ref(label + "_0"),
        projected,
        "T",
        env=env,
        name="each legitimate key unlocks at most once [{}]".format(
            "weak seeds" if weak_seed else "fresh seeds"
        ),
    )


def main() -> None:
    print("UDS SecurityAccess (0x27) seed/key analysis")
    print("=" * 60)
    for weak_seed in (True, False):
        result = analyse(weak_seed)
        print(result.summary())
    print()
    print("with a constant seed the recorded key replays (a second unlock")
    print("without a second legitimate key); fresh seeds make the recorded")
    print("key stale -- the check finds exactly that.")


if __name__ == "__main__":
    main()
