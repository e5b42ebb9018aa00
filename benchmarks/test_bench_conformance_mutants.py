"""Extension bench -- mutation score of the model-derived test suite.

Measures how well the transition-covering conformance suite (generated from
the session specification by :mod:`repro.testgen`) detects seeded defects:
each mutant is the faithful ECU CAPL source with one realistic fault
injected (wrong response type, dropped response, duplicated response,
crossed handlers).  The expected shape: the spec-derived suite kills every
behavioural mutant while the faithful ECU passes -- the 'systematic'
in systematic security testing.
"""

from repro.ota.capl_sources import ECU_SOURCE
from repro.ota.messages import CAN_MESSAGE_SPECS
from repro.ota.models import build_session_system
from repro.testgen.conformance import run_suite
from repro.testgen.generator import transition_cover

#: (mutant name, source transformation applied to the faithful ECU)
MUTANTS = [
    (
        "wrong-response-type",
        lambda src: src.replace("output(msgRptSw);", "output(msgRptUpd);", 1),
    ),
    (
        "dropped-response",
        lambda src: src.replace("output(msgRptUpd);", ";", 1),
    ),
    (
        "duplicated-response",
        lambda src: src.replace(
            "output(msgRptSw);", "output(msgRptSw); output(msgRptSw);", 1
        ),
    ),
    (
        "crossed-handlers",
        lambda src: src.replace("on message reqSw", "on message reqApp_X", 1)
        .replace("on message reqApp", "on message reqSw", 1)
        .replace("on message reqApp_X", "on message reqApp", 1),
    ),
]


def run_mutation_analysis():
    session = build_session_system()
    tests = transition_cover(session.system, session.env)
    spec = session.env.resolve("ECU_FULL")

    def verdict(source):
        report = run_suite(source, tests, spec, CAN_MESSAGE_SPECS, session.env)
        return report.passed

    rows = [("faithful", verdict(ECU_SOURCE))]
    for name, mutate in MUTANTS:
        rows.append((name, verdict(mutate(ECU_SOURCE))))
    return rows, len(tests)


def test_bench_conformance_mutants(benchmark, artifact):
    rows, test_count = benchmark(run_mutation_analysis)
    verdicts = dict(rows)
    assert verdicts["faithful"] is True
    killed = [name for name, passed in rows[1:] if not passed]
    assert len(killed) == len(MUTANTS)  # every mutant caught

    lines = [
        "Mutation analysis of the model-derived conformance suite",
        "suite: {} transition-covering test(s) from SESSION_SPEC".format(test_count),
        "",
        "{:<24} {}".format("implementation", "suite verdict"),
        "-" * 44,
    ]
    for name, passed in rows:
        lines.append(
            "{:<24} {}".format(name, "passes" if passed else "KILLED")
        )
    lines.append("")
    lines.append(
        "mutation score: {}/{} mutants killed".format(len(killed), len(MUTANTS))
    )
    artifact("conformance_mutants", "\n".join(lines))
