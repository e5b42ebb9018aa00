"""Unit tests for the systems under learning (membership oracles)."""

import os
import random
import sys

import pytest

from repro.capl import parser as capl_parser
from repro.capl.interpreter import MessageSpec
from repro.csp import event
from repro.csp.kernel import CompactLTS
from repro.learn import CaplSimulatorSUL, LearnError, LtsSUL, derive_message_specs
from repro.ota import build_session_system
from repro.ota.capl_sources import ECU_SOURCE
from repro.ota.messages import CAN_MESSAGE_SPECS
from repro.testgen import run_suite, transition_cover

PING = """\
variables {
  message rspX msgX;
}
on message reqA {
  output(msgX);
}
"""

BURST = """\
variables {
  message rspX msgX;
  message rspY msgY;
}
on message reqA {
  output(msgX);
  output(msgY);
  output(msgX);
}
"""

STARTUP = """\
variables {
  message rspX msgX;
}
on start {
  output(msgX);
}
on message reqA {
}
"""


def test_derive_message_specs_assigns_sorted_stable_ids():
    specs = derive_message_specs(BURST)
    assert sorted(specs) == ["reqA", "rspX", "rspY"]
    # sorted-name order: reqA < rspX < rspY
    assert specs["reqA"].can_id == 0x200
    assert specs["rspX"].can_id == 0x201
    assert specs["rspY"].can_id == 0x202
    assert derive_message_specs(BURST) == specs


def test_alphabet_is_send_inputs_then_rec_outputs():
    sul = CaplSimulatorSUL(PING, derive_message_specs(PING))
    assert [str(e) for e in sul.alphabet] == ["send.reqA", "rec.rspX"]


def test_membership_of_simple_request_response():
    sul = CaplSimulatorSUL(PING, derive_message_specs(PING))
    send, rec = event("send", "reqA"), event("rec", "rspX")
    assert sul.membership(())
    assert sul.membership((send,))
    assert sul.membership((send, rec))
    assert sul.membership((send, rec, send))
    # no response is pending before a stimulus
    assert not sul.membership((rec,))
    # one activation produces exactly one rspX
    assert not sul.membership((send, rec, rec))


def test_pending_responses_form_a_multiset_and_block_new_stimuli():
    sul = CaplSimulatorSUL(BURST, derive_message_specs(BURST))
    send = event("send", "reqA")
    x, y = event("rec", "rspX"), event("rec", "rspY")
    # any interleaving of {rspX, rspX, rspY} drains the activation
    assert sul.membership((send, x, x, y))
    assert sul.membership((send, y, x, x))
    assert sul.membership((send, x, y, x, send))
    # a third rspX is not pending
    assert not sul.membership((send, x, x, x))
    # the next stimulus is refused until the multiset drains
    assert not sul.membership((send, x, send))


def test_on_start_outputs_are_pending_initially():
    sul = CaplSimulatorSUL(STARTUP, derive_message_specs(STARTUP))
    send, rec = event("send", "reqA"), event("rec", "rspX")
    assert sul.membership((rec,))
    assert not sul.membership((send,))  # startup burst must drain first
    assert sul.membership((rec, send))


def test_unhandled_or_foreign_symbols_are_rejected():
    sul = CaplSimulatorSUL(PING, derive_message_specs(PING))
    assert not sul.membership((event("send", "reqZ"),))
    assert not sul.membership((event("timer", "t"),))


def test_program_without_handlers_is_not_learnable():
    with pytest.raises(LearnError, match="handles no messages"):
        CaplSimulatorSUL("variables { }\non start { }\n", {})


def test_handled_message_without_spec_is_reported():
    with pytest.raises(LearnError, match="no message spec"):
        CaplSimulatorSUL(PING, {"rspX": MessageSpec(0x300, 8)})


def test_lts_sul_membership_is_walk():
    lts = CompactLTS()
    a = event("send", "reqA")
    s0 = lts.add_state()
    s1 = lts.add_state()
    lts.add_transition(s0, a, s1)
    sul = LtsSUL(lts, (a,))
    assert sul.membership(())
    assert sul.membership((a,))
    assert not sul.membership((a, a))
    assert sul.runs == 3


# -- one parse per SUL, fresh interpreter state per query ---------------------

SECURITY_ACCESS = os.path.join(
    os.path.dirname(__file__), "corpus", "security_access.can"
)


def count_parses(monkeypatch):
    """Count CAPL parses, under every name a repro module imported it as."""
    original = capl_parser.parse
    calls = []

    def counting_parse(source):
        calls.append(source)
        return original(source)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "parse", None) is original:
            monkeypatch.setattr(module, "parse", counting_parse)
    return calls


def test_membership_queries_share_the_sul_parse(monkeypatch):
    specs = derive_message_specs(BURST)
    calls = count_parses(monkeypatch)
    sul = CaplSimulatorSUL(BURST, specs)
    send = event("send", "reqA")
    x, y = event("rec", "rspX"), event("rec", "rspY")
    words = [(send, x, x, y) * (n % 4) + (send,) * (n % 2) for n in range(50)]
    for word in words:
        sul.membership(word)
    assert sul.runs == 50
    assert len(calls) == 1


def test_conformance_suite_parses_the_ecu_once(monkeypatch):
    session = build_session_system()
    # the cover and every prefix of it: each one a specification trace
    tests = [
        test[:length]
        for test in transition_cover(session.system, session.env)
        for length in range(1, len(test) + 1)
    ]
    assert len(tests) > 1
    calls = count_parses(monkeypatch)
    report = run_suite(
        ECU_SOURCE,
        tests,
        session.env.resolve("ECU_FULL"),
        CAN_MESSAGE_SPECS,
        session.env,
    )
    assert report.passed, report.summary()
    assert len(calls) == 1


def _word(*symbols):
    return tuple(event(*symbol.split(".")) for symbol in symbols)


#: words whose answers depend on the seedGiven / unlocked globals
LEAK_PROBES = (
    _word("send.reqDl", "rec.rspErr"),
    _word("send.reqDl", "rec.rspData"),
    _word("send.sendKey", "rec.rspErr"),
    _word("send.sendKey", "rec.rspOk"),
    _word("send.reqSeed", "rec.rspSeed", "send.reqDl", "rec.rspErr"),
    _word("send.reqSeed", "rec.rspSeed", "send.reqDl", "rec.rspData"),
    _word("send.reqSeed", "rec.rspSeed", "send.sendKey", "rec.rspOk",
          "send.reqDl", "rec.rspData"),
    _word("send.reqSeed", "rec.rspSeed", "send.sendKey", "rec.rspErr"),
    _word("rec.rspSeed"),
    (),
)


def _walk_queries(sul, rng, count):
    """*count* queries of a seeded random walk that extends accepted words."""
    queries = []
    word = ()
    while len(queries) < count:
        candidate = word + (rng.choice(sul.alphabet),)
        queries.append(candidate)
        if sul.membership(candidate):
            word = candidate
        if len(word) >= 8 or rng.random() < 0.1:
            word = ()
    return queries


def test_no_interpreter_state_survives_between_queries():
    with open(SECURITY_ACCESS, "r", encoding="utf-8") as handle:
        source = handle.read()
    specs = derive_message_specs(source)
    fresh = [
        CaplSimulatorSUL(source, specs).membership(word) for word in LEAK_PROBES
    ]
    assert fresh[0] and not fresh[1] and fresh[6]

    rng = random.Random(20190624)
    others = _walk_queries(CaplSimulatorSUL(source, specs), rng, 200)
    unlocking = _word("send.sendKey", "rec.rspOk")
    assert any(
        query[i:i + 2] == unlocking for query in others for i in range(len(query))
    ), "the walk never unlocks the ECU; the probes would test nothing"
    queue = [(None, query) for query in others]
    queue += [(index, word) for index, word in enumerate(LEAK_PROBES)]
    rng.shuffle(queue)

    sul = CaplSimulatorSUL(source, specs)
    shared = [None] * len(LEAK_PROBES)
    for index, word in queue:
        answer = sul.membership(word)
        if index is not None:
            shared[index] = answer
    assert sul.runs == len(queue)
    assert shared == fresh
