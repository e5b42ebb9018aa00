#!/usr/bin/env python3
"""Dolev-Yao intruder analysis: why X.1373 mandates message authentication.

Composes the update-distribution model with a worst-case network intruder
at three protection levels and checks two properties:

* integrity          -- the ECU never applies the unauthorised module,
* injective agreement -- each legitimate send authorises at most one apply
                         (replay resistance).

The verdict table reproduces the security argument of requirement R05:
plain messages are injectable, MACs stop forgery but not replay, and
MAC-plus-nonce stops both.

Run:  python examples/intruder_injection.py
"""

from repro import api
from repro.ota.models import build_secured_system
from repro.ota.requirements import injective_agreement_check
from repro.security.properties import never_occurs


def main() -> None:
    print("{:<12} {:<24} {:<24}".format("protection", "integrity", "injective agreement"))
    print("-" * 60)
    details = []
    for protection in ("none", "mac", "mac_nonce"):
        secured = build_secured_system(protection)
        integrity_spec = never_occurs(
            secured.forbidden_applies, secured.alphabet, secured.env
        )
        integrity = api.check_refinement(
            integrity_spec, secured.attacked_system, "T",
            env=secured.env, name="integrity [{}]".format(protection),
        )
        agreement = injective_agreement_check(build_secured_system(protection))
        print(
            "{:<12} {:<24} {:<24}".format(
                protection,
                "PASSED" if integrity.passed else "ATTACK FOUND",
                "PASSED" if agreement.passed else "REPLAY FOUND",
            )
        )
        for result in (integrity, agreement):
            if not result.passed:
                details.append((protection, result))

    print()
    print("counterexamples (the attacks, as insecure traces):")
    for protection, result in details:
        print("[{}] {}".format(protection, result.counterexample.describe()))


if __name__ == "__main__":
    main()
