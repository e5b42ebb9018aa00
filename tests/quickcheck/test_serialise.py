"""The corpus serialiser: every oracle input round-trips through JSON."""

import json
import random

import pytest

from repro.csp.events import Alphabet, Event, event
from repro.csp.process import Prefix, ProcessRef, Renaming, SKIP, STOP
from repro.quickcheck.gen import capl_cases, process_terms
from repro.quickcheck.serialise import (
    CorpusEncodingError,
    decode_capl,
    decode_process,
    decode_value,
    encode_capl,
    encode_process,
    encode_value,
)


def roundtrip(value):
    # through an actual JSON string: the encoding must be JSON-serialisable,
    # not merely dict-shaped
    return decode_value(json.loads(json.dumps(encode_value(value))))


def test_random_process_terms_roundtrip():
    gen = process_terms(max_depth=4)
    rng = random.Random(4242)
    for _ in range(200):
        term = gen(rng)
        assert roundtrip(term) == term


def test_random_capl_cases_roundtrip():
    gen = capl_cases()
    rng = random.Random(4242)
    for _ in range(100):
        case = gen(rng)
        assert roundtrip(case) == case


def test_events_alphabets_and_atoms_roundtrip():
    compound = Event("send", ("reqSw",))
    for value in (
        event("a"),
        compound,
        Alphabet.of(event("a"), compound),
        None,
        True,
        0,
        -7,
        2.5,
        "reqA",
    ):
        assert roundtrip(value) == value


def test_nested_containers_roundtrip_with_their_shapes():
    value = ((STOP, [event("a"), "x"]), [(1, SKIP)])
    back = roundtrip(value)
    assert back == value
    assert isinstance(back, tuple)
    assert isinstance(back[1], list)
    assert isinstance(back[1][0], tuple)


def test_renaming_and_ref_roundtrip():
    a, b = event("a"), event("b")
    renamed = Renaming(Prefix(a, STOP), {a: b})
    assert decode_process(encode_process(renamed)) == renamed
    ref = ProcessRef("ECU")
    assert decode_process(encode_process(ref)) == ref


def test_capl_encoding_covers_every_statement_tag():
    from repro.quickcheck.gen import CaplProgram

    program = CaplProgram(
        [
            (
                "reqA",
                (
                    ("output", "rspX"),
                    ("assign", 2),
                    ("noop",),
                    ("if", 1, (("output", "rspY"),)),
                    ("ifelse", (("noop",),), (("assign", 0),)),
                    ("for", 2, (("output", "rspX"),)),
                ),
            )
        ]
    )
    assert decode_capl(json.loads(json.dumps(encode_capl(program)))) == program


def test_unknown_values_raise_encoding_errors():
    with pytest.raises(CorpusEncodingError):
        encode_value(object())
    with pytest.raises(CorpusEncodingError):
        decode_value({"kind": "no-such-kind"})
    with pytest.raises(CorpusEncodingError):
        decode_process({"op": "no-such-op"})
