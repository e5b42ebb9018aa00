"""F2 -- paper Fig. 2: the VMG + target-ECU demonstration system.

Runs the two CAPL nodes on the simulated CAN bus (the CANoe-substitute
stage of Sec. VI) and regenerates the bus trace of the update session;
the benchmark times a complete simulation run.
"""

from repro.ota.scenario import simulate_network


def simulate():
    return simulate_network()


def test_bench_fig2_demo_system(benchmark, artifact):
    log, vmg, ecu = benchmark(simulate)
    assert log.names() == ["reqSw", "rptSw", "reqApp", "rptUpd"]
    assert ecu.globals["swVersion"] == 8

    lines = ["Fig. 2 demonstration system - simulated CAN bus trace", ""]
    lines.append(log.render())
    lines.append("")
    lines.append("VMG console:")
    lines.extend("  " + line for line in vmg.console)
    lines.append("ECU software version after session: {}".format(ecu.globals["swVersion"]))
    artifact("fig2_demo_system", "\n".join(lines))
