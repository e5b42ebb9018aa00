"""Frame -> event mapping: channels, signal mode, unknown-frame policies."""

import pytest

from repro.csp.events import Event
from repro.rv.ingest import LogRecord
from repro.rv.mapping import EventMapping, UnknownFrameError
from repro.rv.specs import ota_database


@pytest.fixture(scope="module")
def database():
    return ota_database()


def record(can_id, data=(), line=1, remote=False):
    return LogRecord(0, can_id, bytes(data), remote=remote, line=line)


class TestNameMode:
    def test_channel_from_dbc_sender(self, database):
        mapping = EventMapping(
            database, channels={"VMG": "send", "ECU": "rec"}
        )
        assert mapping.event_of(record(257, [0])) == Event("send", ("reqSw",))
        assert mapping.event_of(record(258, [1, 0])) == Event("rec", ("rptSw",))

    def test_default_channel_for_unmapped_sender(self, database):
        mapping = EventMapping(database)
        assert mapping.event_of(record(257, [0])) == Event("msg", ("reqSw",))

    def test_remote_frames_skipped(self, database):
        mapping = EventMapping(database)
        assert mapping.event_of(record(257, remote=True)) is None


class TestSignalMode:
    def test_all_signals_decoded_in_declaration_order(self, database):
        mapping = EventMapping(database, mode="signal")
        event = mapping.event_of(record(260, [0]))
        # ResultCode 0 decodes through the VAL_ table to its label
        assert event == Event("msg", ("rptUpd", "success"))

    def test_selected_signals_only(self, database):
        mapping = EventMapping(
            database, mode="signal", signals={"rptSw": ["DiagStatus"]}
        )
        event = mapping.event_of(record(258, [7, 1]))
        assert event == Event("msg", ("rptSw", "degraded"))

    def test_unselected_message_keeps_all_signals(self, database):
        mapping = EventMapping(
            database, mode="signal", signals={"rptSw": ["DiagStatus"]}
        )
        assert mapping.event_of(record(260, [3])) == Event(
            "msg", ("rptUpd", "rollback")
        )


class TestUnknownPolicies:
    def test_skip(self, database):
        mapping = EventMapping(database, unknown="skip")
        assert mapping.event_of(record(0x7FF)) is None

    def test_fail(self, database):
        mapping = EventMapping(database, unknown="fail")
        with pytest.raises(UnknownFrameError) as error:
            mapping.event_of(record(0x7FF, line=9))
        assert "0x7FF" in str(error.value)
        assert "line 9" in str(error.value)

    def test_abstract(self, database):
        mapping = EventMapping(database, unknown="abstract")
        assert mapping.event_of(record(0x7FF)) == Event("unknown", ("0x7FF",))

    def test_abstract_channel_configurable(self, database):
        mapping = EventMapping(
            database, unknown="abstract", abstract_channel="alien"
        )
        assert mapping.event_of(record(0x123)).channel == "alien"

    def test_bad_policy_and_mode_rejected(self, database):
        with pytest.raises(ValueError):
            EventMapping(database, unknown="explode")
        with pytest.raises(ValueError):
            EventMapping(database, mode="bits")


class TestStream:
    def test_stream_pairs_events_with_lines(self, database):
        mapping = EventMapping(database)
        records = [record(257, [0], line=3), record(0x7FF, line=4),
                   record(258, [0, 0], line=5)]
        pairs = list(mapping.stream(records))
        assert [line for _event, line in pairs] == [3, 5]
        assert [str(event) for event, _line in pairs] == [
            "msg.reqSw", "msg.rptSw"
        ]


class TestDocRoundTrip:
    def test_round_trip(self, database):
        mapping = EventMapping(
            database,
            channels={"VMG": "send"},
            default_channel="bus",
            mode="signal",
            signals={"rptSw": ["DiagStatus"]},
            unknown="abstract",
            abstract_channel="alien",
        )
        clone = EventMapping.from_doc(database, mapping.to_doc())
        assert clone.to_doc() == mapping.to_doc()

    def test_defaults_omitted(self, database):
        assert EventMapping(database).to_doc() == {}

    def test_non_object_rejected(self, database):
        with pytest.raises(ValueError):
            EventMapping.from_doc(database, ["skip"])
