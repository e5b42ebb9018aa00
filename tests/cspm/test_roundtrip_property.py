"""Property-based round-trip: emit CSPm, re-parse, compare semantics.

For random core process terms over declared channels, emitting CSPm text and
re-loading it through the parser/evaluator must produce a trace-equivalent
process.  This pins the emitter and the parser/evaluator against each other,
the way the paper's Table I fixes notation against the algebra.  Random
terms come from the shared :mod:`repro.quickcheck` generators; failures
print the session seed and a shrunk repro (replay via ``REPRO_SEED``).
"""

from repro.csp.events import Channel
from repro.csp.traces import denotational_traces
from repro.cspm.emitter import emit_process
from repro.cspm.evaluator import load
from repro.quickcheck.gen import process_terms
from repro.quickcheck.testing import for_all

SEND = Channel("send", ["reqSw", "rptSw"])
REC = Channel("rec", ["reqSw", "rptSw"])
EVENTS = tuple(SEND.events()) + tuple(REC.events())

HEADER = "datatype msgs = reqSw | rptSw\nchannel send, rec : msgs\n"

PROCESSES = process_terms(EVENTS, max_depth=4)


def test_emit_parse_roundtrip_preserves_traces(repro_seed):
    def check(process):
        text = HEADER + "P = " + emit_process(
            process, {"send": SEND, "rec": REC}
        )
        model = load(text)
        reloaded = model.env.resolve("P")
        bound = 4
        assert denotational_traces(reloaded, model.env, bound) == (
            denotational_traces(process, None, bound)
        )

    for_all(PROCESSES, check, seed=repro_seed, name="emit-parse-roundtrip", cases=80)


def test_emitted_text_is_single_line(repro_seed):
    def check(process):
        assert "\n" not in emit_process(process)

    for_all(PROCESSES, check, seed=repro_seed, name="emit-single-line", cases=80)
