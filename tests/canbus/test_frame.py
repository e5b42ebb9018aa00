"""Unit tests for CAN frames."""

import pytest

from repro.canbus.frame import CanFrame, MAX_DLC, MAX_EXTENDED_ID, MAX_STANDARD_ID


class TestConstruction:
    def test_basic_frame(self):
        frame = CanFrame(0x101, [1, 2, 3], name="reqSw")
        assert frame.can_id == 0x101
        assert frame.dlc == 3
        assert frame.name == "reqSw"

    def test_standard_id_range(self):
        CanFrame(MAX_STANDARD_ID)
        with pytest.raises(ValueError):
            CanFrame(MAX_STANDARD_ID + 1)

    def test_extended_id_range(self):
        CanFrame(MAX_EXTENDED_ID, extended=True)
        with pytest.raises(ValueError):
            CanFrame(MAX_EXTENDED_ID + 1, extended=True)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            CanFrame(-1)

    def test_payload_limit(self):
        CanFrame(1, [0] * MAX_DLC)
        with pytest.raises(ValueError):
            CanFrame(1, [0] * (MAX_DLC + 1))

    def test_byte_range_validated(self):
        with pytest.raises(ValueError):
            CanFrame(1, [256])
        with pytest.raises(ValueError):
            CanFrame(1, [-1])

    def test_immutability(self):
        frame = CanFrame(1, [0])
        with pytest.raises(AttributeError):
            frame.can_id = 2


class TestAccessors:
    def test_byte_within_and_beyond_dlc(self):
        frame = CanFrame(1, [9, 8])
        assert frame.byte(0) == 9
        assert frame.byte(1) == 8
        assert frame.byte(7) == 0  # out of dlc reads as zero

    def test_with_byte_grows_payload(self):
        frame = CanFrame(1, [1])
        updated = frame.with_byte(3, 7)
        assert updated.dlc == 4
        assert updated.byte(3) == 7
        assert frame.dlc == 1  # original untouched

    def test_with_byte_validates(self):
        frame = CanFrame(1)
        with pytest.raises(ValueError):
            frame.with_byte(0, 300)
        with pytest.raises(ValueError):
            frame.with_byte(8, 1)

    def test_with_data(self):
        frame = CanFrame(1, [1]).with_data([4, 5])
        assert frame.data == (4, 5)


class TestArbitrationAndTiming:
    def test_lower_id_wins(self):
        high_priority = CanFrame(0x100)
        low_priority = CanFrame(0x200)
        assert high_priority.arbitration_key() < low_priority.arbitration_key()

    def test_standard_beats_extended_at_same_id(self):
        standard = CanFrame(0x100)
        extended = CanFrame(0x100, extended=True)
        assert standard.arbitration_key() < extended.arbitration_key()

    def test_bit_length_grows_with_payload(self):
        empty = CanFrame(1)
        full = CanFrame(1, [0] * 8)
        assert full.bit_length() == empty.bit_length() + 64

    def test_extended_frame_longer(self):
        assert CanFrame(1, extended=True).bit_length() > CanFrame(1).bit_length()


class TestEquality:
    def test_equality_ignores_name(self):
        assert CanFrame(1, [2], name="x") == CanFrame(1, [2], name="y")

    def test_inequality_on_payload(self):
        assert CanFrame(1, [2]) != CanFrame(1, [3])

    def test_hashable(self):
        assert len({CanFrame(1, [2]), CanFrame(1, [2])}) == 1

    def test_repr_shows_name_or_id(self):
        assert "reqSw" in repr(CanFrame(0x101, name="reqSw"))
        assert "0x101" in repr(CanFrame(0x101))
