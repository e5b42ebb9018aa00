#!/usr/bin/env python3
"""Attack-tree analysis of the update flow (paper Sec. IV-E).

Builds an attack tree for compromising the OTA update channel, translates
it into a semantically equivalent CSP process (the paper's SP-graph
semantics), and asks, for each protection level of the shared-key analysis,
which attack sequences the composed system-plus-intruder can actually
exhibit.

Run:  python examples/attack_tree_analysis.py
"""

from repro.csp.traces import format_trace
from repro.cspm.emitter import emit_process
from repro.ota.models import SHARED_KEY, build_secured_system
from repro.security.attack_tree import action, any_of, feasible_attacks, sequence_of
from repro.security.crypto import mac


def build_attack_tree(secured):
    """Goal: make the ECU apply the unauthorised module upd2.

    OR
    |- direct injection:     fake(upd2 payload) . apply(upd2)
    `- replayed legitimate:  overhear legit(upd1) . fake(upd1) . apply twice
       (not the goal module, but demonstrates the replay sub-tree)
    """
    if secured.protection == "none":
        inject_payload = "upd2"
        replay_payload = "upd1"
    elif secured.protection == "mac":
        inject_payload = ("upd2", "forged")
        replay_payload = ("upd1", mac(SHARED_KEY, "upd1"))
    else:
        inject_payload = ("upd2", "n1", "forged")
        replay_payload = ("upd1", "n1", mac(SHARED_KEY, ("upd1", "n1")))

    direct = sequence_of(
        action(secured.fake(inject_payload)),
        action(secured.apply("upd2")),
    )
    replay = sequence_of(
        action(secured.legit(replay_payload)),
        action(secured.apply("upd1")),
        action(secured.fake(replay_payload)),
        action(secured.apply("upd1")),
    )
    return any_of(direct, replay)


def main() -> None:
    for protection in ("none", "mac", "mac_nonce"):
        secured = build_secured_system(protection)
        tree = build_attack_tree(secured)

        print("=" * 72)
        print("protection level: {}".format(protection))
        print("attack tree as CSP process:")
        print("  " + emit_process(tree.to_process()))
        print("attack sequences (SP-graph semantics): {}".format(len(tree.sequences())))

        feasible = feasible_attacks(tree, secured.attacked_system, secured.env)
        if feasible:
            print("FEASIBLE ATTACKS on the composed system:")
            for attack in feasible:
                print("  " + format_trace(attack))
        else:
            print("no attack sequence is feasible -- the system resists this tree")
        print()


if __name__ == "__main__":
    main()
