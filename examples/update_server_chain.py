#!/usr/bin/env python3
"""The extended X.1373 scope: Update Server -> VMG -> target ECU.

The paper's demonstration stops at the VMG (Sec. V-A1) and lists the
server-side message types as future work (Sec. VIII-A).  This example runs
the implemented extension: the three-component distribution chain, its
end-to-end specification, projections back to the original Sec. V property,
and an attacker interrupt showing what a compromised server link costs.

Run:  python examples/update_server_chain.py
"""

from repro import api
from repro.csp.events import Alphabet, event
from repro.csp.lts import compile_lts
from repro.csp.process import Hiding, Interrupt, Prefix, STOP, ref
from repro.ota.extended import build_extended_system
from repro.security.properties import precedes, request_response


def main() -> None:
    system = build_extended_system()
    env = system.env

    print("=" * 72)
    print("extended scope: SERVER <-> VMG <-> ECU (ITU-T X.1373 full chain)")
    print("=" * 72)

    print()
    print("one full distribution round:")
    lts = compile_lts(system.system, env)
    round_trip = [
        system.srv("diagnose"),
        system.send("reqSw"),
        system.rec("rptSw"),
        system.srv("diagnoseRpt"),
        system.srv("update_check"),
        system.srv("update"),
        system.send("reqApp"),
        system.rec("rptUpd"),
        system.srv("update_report"),
    ]
    for step in round_trip:
        print("   " + str(step))
    assert lts.walk(round_trip) is not None

    print()
    print(api.check_refinement(system.spec, system.system, "T", env=env, name="E2E_SPEC [T= XSYSTEM").summary())
    print(api.check_deadlock(system.system, env=env).summary())

    # the Sec. V property still holds on the vehicle-side projection
    keep = Alphabet.of(system.send("reqSw"), system.rec("rptSw"))
    everything = system.srv.alphabet() | Alphabet.from_channels(system.send, system.rec)
    projected = Hiding(system.system, everything - keep)
    sp02 = request_response(system.send("reqSw"), system.rec("rptSw"), env, "SP02X")
    print(api.check_refinement(sp02, projected, "T", env=env, name="SP02 [T= XSYSTEM|vehicle").summary())

    # authorisation chain: no ECU apply without a server-pushed update
    auth = precedes(system.srv("update"), system.send("reqApp"), everything, env, "AUTH")
    print(api.check_refinement(auth, system.system, "T", env=env, name="server-authorised updates").summary())

    print()
    print("--- attacker interrupt on the server link " + "-" * 24)
    # a jamming attacker can cut the srv link at any moment (interrupt);
    # availability of the update chain is then lost
    jam = event("jam")
    attacked = Interrupt(system.system, Prefix(jam, STOP))
    env.bind("JAMMED", attacked)
    print(api.check_deadlock(ref("JAMMED"), env=env).summary())
    print("(the jam event deadlocks the chain: the availability cost of an")
    print(" unprotected server link, found automatically by the checker)")


if __name__ == "__main__":
    main()
