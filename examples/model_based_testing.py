#!/usr/bin/env python3
"""Model-based test generation: the testing half of 'systematic security testing'.

Refinement checking works on the extracted model; conformance testing works
on the *running code*.  This example derives a transition-covering test
suite from the diagnose-then-update session specification and executes it
against both ECU implementations on the simulated bus:

* the faithful ECU passes every generated test,
* the ECU with the seeded integrity defect fails, and the failing test's
  observed exchange shows the defect on the wire (``rec.rptUpd`` where the
  specification demanded ``rec.rptSw``).

Run:  python examples/model_based_testing.py
"""

from repro.csp.traces import format_trace
from repro.ota.capl_sources import ECU_FLAWED_SOURCE, ECU_SOURCE
from repro.ota.messages import CAN_MESSAGE_SPECS
from repro.ota.models import build_session_system
from repro.testgen.conformance import run_suite
from repro.testgen.generator import coverage_of, transition_cover


def main() -> None:
    session = build_session_system()

    print("specification: the diagnose-then-update session")
    print("  SESSION_SPEC = send.reqSw -> rec.rptSw -> send.reqApp -> rec.rptUpd -> ...")
    print()

    tests = transition_cover(session.system, session.env)
    covered, total = coverage_of(tests, session.system, session.env)
    print("generated test suite ({} test(s), {}/{} transitions covered):".format(
        len(tests), covered, total))
    for test in tests:
        print("  " + format_trace(test))
    print()

    spec = session.env.resolve("ECU_FULL")
    for source, label in ((ECU_SOURCE, "faithful ECU"), (ECU_FLAWED_SOURCE, "flawed ECU")):
        report = run_suite(source, tests, spec, CAN_MESSAGE_SPECS, session.env)
        print("{}: {}".format(label, report.summary()))
    print()
    print("the same specification that drove the refinement check doubles as")
    print("an executable regression suite for the implementation.")


if __name__ == "__main__":
    main()
