"""Unit and property tests for the signal codec (pack/unpack)."""

import pytest

from repro.candb.codec import decode_message, decode_raw, encode_message, encode_raw
from repro.candb.model import Message, Signal
from repro.quickcheck.gen import Gen, integers, sampled_from, tuples
from repro.quickcheck.oracles import Discard
from repro.quickcheck.testing import for_all


def little(start, length, signed=False, factor=1.0, offset=0.0):
    return Signal("s", start, length, "little", signed, factor, offset)


def big(start, length, signed=False):
    return Signal("s", start, length, "big", signed)


class TestLittleEndian:
    def test_byte_aligned(self):
        data = bytearray(2)
        encode_raw(little(0, 8), 0xAB, data)
        assert data == bytearray([0xAB, 0x00])
        assert decode_raw(little(0, 8), bytes(data)) == 0xAB

    def test_second_byte(self):
        data = bytearray(2)
        encode_raw(little(8, 8), 0xCD, data)
        assert data == bytearray([0x00, 0xCD])

    def test_sub_byte_field(self):
        data = bytearray(1)
        encode_raw(little(4, 4), 0x9, data)
        assert data[0] == 0x90
        assert decode_raw(little(4, 4), bytes(data)) == 0x9

    def test_cross_byte_field(self):
        data = bytearray(2)
        encode_raw(little(4, 8), 0xFF, data)
        assert data == bytearray([0xF0, 0x0F])

    def test_16_bit(self):
        data = bytearray(2)
        encode_raw(little(0, 16), 0x1234, data)
        # little-endian: LSB first
        assert data == bytearray([0x34, 0x12])


class TestBigEndian:
    def test_byte_aligned_msb(self):
        data = bytearray(2)
        encode_raw(big(7, 8), 0xAB, data)
        assert data == bytearray([0xAB, 0x00])
        assert decode_raw(big(7, 8), bytes(data)) == 0xAB

    def test_motorola_16_bit(self):
        data = bytearray(2)
        encode_raw(big(7, 16), 0x1234, data)
        # big-endian: MSB first
        assert data == bytearray([0x12, 0x34])
        assert decode_raw(big(7, 16), bytes(data)) == 0x1234


class TestSigned:
    def test_negative_roundtrip(self):
        data = bytearray(1)
        encode_raw(little(0, 8, signed=True), -5, data)
        assert decode_raw(little(0, 8, signed=True), bytes(data)) == -5

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            encode_raw(little(0, 8, signed=True), 200, bytearray(1))
        with pytest.raises(ValueError):
            encode_raw(little(0, 8), 256, bytearray(1))

    def test_raw_range(self):
        assert little(0, 8).raw_range() == (0, 255)
        assert little(0, 8, signed=True).raw_range() == (-128, 127)


class TestScaling:
    def test_factor_offset(self):
        signal = little(0, 8, factor=0.5, offset=-40.0)
        assert signal.physical_to_raw(-40.0) == 0
        assert signal.physical_to_raw(0.0) == 80
        assert signal.raw_to_physical(80) == 0.0

    def test_out_of_range_physical(self):
        signal = little(0, 4)
        with pytest.raises(ValueError):
            signal.physical_to_raw(100)


class TestMessageCodec:
    def make_message(self):
        message = Message(0x101, "status", 3)
        message.add_signal(Signal("speed", 0, 12, "little", factor=0.1))
        gear = Signal("gear", 12, 3, "little")
        gear.value_table = {0: "park", 1: "reverse", 2: "drive"}
        message.add_signal(gear)
        return message

    def test_encode_decode_roundtrip(self):
        message = self.make_message()
        payload = encode_message(message, {"speed": 88.8, "gear": "drive"})
        decoded = decode_message(message, payload)
        assert decoded["gear"] == "drive"
        assert abs(decoded["speed"] - 88.8) < 0.1

    def test_unknown_signal_rejected(self):
        with pytest.raises(KeyError):
            encode_message(self.make_message(), {"boost": 1})

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            encode_message(self.make_message(), {"gear": "warp"})

    def test_unmentioned_signals_zero(self):
        message = self.make_message()
        payload = encode_message(message, {})
        decoded = decode_message(message, payload)
        assert decoded["gear"] == "park"  # raw 0 labelled

    def test_signal_overflowing_payload_rejected(self):
        message = Message(1, "tiny", 1)
        message.add_signal(Signal("wide", 0, 16, "little"))
        with pytest.raises(ValueError):
            encode_message(message, {"wide": 1000})


#: (start byte, length, byte order, raw value that fits in length bits)
ROUNDTRIP_CASES = tuples(
    integers(0, 6), integers(1, 16), sampled_from(["little", "big"])
).bind(
    lambda head: tuples(*map(Gen.constant, head), integers(0, (1 << head[1]) - 1))
)


def test_property_roundtrip(repro_seed):
    """encode then decode returns the original raw value, both byte orders."""

    def check(case):
        start_byte, length, order, raw = case
        if length < 1 or not 0 <= raw < 1 << length:
            raise Discard("shrunk out of the signal's range")
        if order == "little":
            start_bit = start_byte * 8
        else:
            start_bit = start_byte * 8 + 7  # MSB of the byte
        signal = Signal("s", start_bit, length, order)
        payload = bytearray(8)
        encode_raw(signal, raw, payload)
        assert decode_raw(signal, bytes(payload)) == raw

    for_all(ROUNDTRIP_CASES, check, seed=repro_seed, name="codec-roundtrip", cases=200)


def test_property_signed_roundtrip(repro_seed):
    def check(raw):
        signal = Signal("s", 0, 8, "little", signed=True)
        payload = bytearray(1)
        encode_raw(signal, raw, payload)
        assert decode_raw(signal, bytes(payload)) == raw

    for_all(
        integers(-128, 127),
        check,
        seed=repro_seed,
        name="codec-signed-roundtrip",
        cases=100,
    )


def test_property_disjoint_fields_independent(repro_seed):
    """Two non-overlapping fields encode without interference."""

    def check(pair):
        a, b = pair
        low = Signal("low", 0, 4, "little")
        high = Signal("high", 4, 4, "little")
        payload = bytearray(1)
        encode_raw(low, a, payload)
        encode_raw(high, b, payload)
        assert decode_raw(low, bytes(payload)) == a
        assert decode_raw(high, bytes(payload)) == b

    for_all(
        tuples(integers(0, 15), integers(0, 15)),
        check,
        seed=repro_seed,
        name="codec-disjoint-fields",
        cases=100,
    )
