#!/usr/bin/env python3
"""The complete OTA software-update case study (paper Sec. V + VI).

Runs the whole Fig. 1 toolchain over the X.1373 demonstration network:

* simulate the VMG and target ECU (CAPL programs) on the virtual CAN bus,
* extract and compose the CSPm system model from the same CAPL sources,
* discharge the SP02-style integrity assertion,
* validate that the simulated bus trace is admitted by the extracted model,
* then repeat with the seeded integrity flaw and show the insecure trace,
* finally discharge all Table III requirements R01-R05.

Run:  python examples/ota_update_verification.py
"""

from repro.ota.messages import render_table_ii
from repro.ota.requirements import check_all, render_table_iii
from repro.ota.scenario import run_workflow


def main() -> None:
    print("=" * 72)
    print("OTA software update case study (ITU-T X.1373)")
    print("=" * 72)
    print()
    print(render_table_ii())
    print()

    print("--- Fig. 1 workflow on the faithful ECU " + "-" * 24)
    report = run_workflow(flawed=False)
    print(report.simulation_log.render())
    print()
    print(report.summary())
    print()

    print("--- Fig. 1 workflow on the ECU with the seeded flaw " + "-" * 12)
    flawed_report = run_workflow(flawed=True)
    print(flawed_report.summary())
    print()
    print("note: the flawed ECU *simulates* cleanly (the defect is latent);")
    print("only the refinement check exposes the insecure trace -- the")
    print("Needham-Schroeder lesson of the paper's Sec. II-B.")
    print()

    print("--- Table III requirements " + "-" * 38)
    print(render_table_iii())
    print()
    for requirement, result in check_all():
        print("{}: {}".format(requirement.req_id, result.summary()))


if __name__ == "__main__":
    main()
