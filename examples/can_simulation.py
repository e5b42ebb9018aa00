#!/usr/bin/env python3
"""Running CAPL on the simulated CAN bus -- and attacking it.

Demonstrates the CANoe-substitute layer on its own: the VMG and ECU CAPL
programs exchange the update session on a virtual 500 kbit/s CAN segment;
then a scripted attacker node injects a spoofed reqApp frame and the trace
shows the ECU applying an update nobody requested -- the concrete bus-level
view of the injection attack the formal analysis predicts.

Run:  python examples/can_simulation.py
"""

from repro.canbus.bus import CanBus
from repro.canbus.frame import CanFrame
from repro.canbus.node import ScriptedNode
from repro.canbus.scheduler import Scheduler
from repro.capl.interpreter import CaplNode
from repro.ota.capl_sources import ECU_SOURCE, VMG_SOURCE
from repro.ota.messages import CAN_MESSAGE_SPECS


def honest_session() -> None:
    print("--- honest update session " + "-" * 40)
    scheduler = Scheduler()
    bus = CanBus(scheduler, bitrate=500_000)
    vmg = CaplNode("VMG", bus, VMG_SOURCE, CAN_MESSAGE_SPECS)
    ecu = CaplNode("ECU", bus, ECU_SOURCE, CAN_MESSAGE_SPECS)
    log = bus.simulate(until=1_000_000)
    print(log.render())
    print("VMG console:")
    for line in vmg.console:
        print("  " + line)
    print("ECU software version: {}".format(ecu.globals["swVersion"]))
    print()


def attacked_session() -> None:
    print("--- session with an injection attacker " + "-" * 27)
    scheduler = Scheduler()
    bus = CanBus(scheduler, bitrate=500_000)
    CaplNode("VMG", bus, VMG_SOURCE, CAN_MESSAGE_SPECS)
    ecu = CaplNode("ECU", bus, ECU_SOURCE, CAN_MESSAGE_SPECS)
    # a cheap injection tool: spams spoofed 'apply update' frames; no VMG
    # ever requested them, but the unauthenticated ECU applies each one
    spoofed = CanFrame(
        CAN_MESSAGE_SPECS["reqApp"].can_id, [0x66, 0, 0, 0], name="reqApp"
    )
    ScriptedNode("ATTACKER", bus, [(50_000, spoofed), (60_000, spoofed)])
    log = bus.simulate(until=1_000_000)
    print(log.render())
    print(
        "ECU software version: {} (bumped by {} unauthorised updates)".format(
            ecu.globals["swVersion"], ecu.globals["swVersion"] - 8
        )
    )
    print()
    print("the formal counterpart of this attack is what the intruder model")
    print("finds automatically -- see examples/intruder_injection.py")


def main() -> None:
    honest_session()
    attacked_session()


if __name__ == "__main__":
    main()
