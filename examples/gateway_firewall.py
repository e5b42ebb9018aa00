#!/usr/bin/env python3
"""Multi-bus topology: the gateway as a security firewall.

Modern vehicles split their network into domains (infotainment, body,
powertrain) joined by gateway ECUs.  This example builds a two-segment
topology, puts the engine ECU on the powertrain bus, an attacker on the
exposed infotainment bus, and shows the gateway's routing policy deciding
the outcome:

* with a permissive gateway the spoofed torque-request frame reaches the
  engine ECU (the Jeep-hack topology the paper's Sec. II cites),
* with a firewalling policy only the status range crosses, and the attack
  frame is dropped at the gateway.

Run:  python examples/gateway_firewall.py
"""

from repro.canbus.bus import CanBus
from repro.canbus.frame import CanFrame
from repro.canbus.gateway import GatewayNode, forward_range
from repro.canbus.node import ScriptedNode
from repro.canbus.scheduler import Scheduler
from repro.capl.interpreter import CaplNode

ENGINE_SRC = """
variables
{
  int torqueRequests = 0;
  int statusSeen = 0;
}
on message 0x101 { torqueRequests++; write("ENGINE: torque request accepted!"); }
on message 0x501 { statusSeen++; }
"""


def run_topology(firewalled: bool) -> None:
    scheduler = Scheduler()
    infotainment = CanBus(scheduler, name="INFOTAINMENT")
    powertrain = CanBus(scheduler, name="POWERTRAIN")

    gateway = GatewayNode("GW").attach(infotainment).attach(powertrain)
    if firewalled:
        # policy: only the 0x5xx status range may cross into powertrain
        gateway.add_route(infotainment, powertrain, forward_range(0x500, 0x5FF))
    else:
        gateway.add_route(infotainment, powertrain, lambda frame: True)

    engine = CaplNode("ENGINE", powertrain, ENGINE_SRC)
    ScriptedNode(
        "ATTACKER",
        infotainment,
        [
            (10_000, CanFrame(0x101, [0xFF], name="torqueReq")),  # the attack
            (20_000, CanFrame(0x501, [0x01], name="status")),     # legit-looking
        ],
    )
    infotainment.start()
    powertrain.start()
    scheduler.run()

    label = "firewalled" if firewalled else "permissive"
    print("--- {} gateway ---".format(label))
    print("  torque requests reaching the engine: {}".format(
        engine.globals["torqueRequests"]))
    print("  status frames reaching the engine:   {}".format(
        engine.globals["statusSeen"]))
    print("  frames dropped at the gateway:       {}".format(len(gateway.dropped)))
    print()


def main() -> None:
    print("two-segment topology: ATTACKER @ infotainment, ENGINE @ powertrain\n")
    run_topology(firewalled=False)
    run_topology(firewalled=True)
    print("the same routing table is the attack surface: domain isolation is")
    print("a gateway policy, and the simulator makes the difference visible.")


if __name__ == "__main__":
    main()
