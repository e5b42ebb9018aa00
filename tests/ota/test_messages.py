"""Unit tests for the Table II message set."""

from repro.ota.messages import (
    BASIC_MESSAGES,
    CAN_MESSAGE_SPECS,
    EXTENDED_MESSAGES,
    SERVER_MESSAGES,
    TABLE_II,
    basic_alphabet,
    basic_channels,
    extended_channels,
    render_table_ii,
    table_ii_rows,
)


class TestTableII:
    def test_four_basic_message_types(self):
        assert BASIC_MESSAGES == ("reqSw", "rptSw", "reqApp", "rptUpd")
        assert len(TABLE_II) == 4

    def test_directions_match_paper(self):
        by_id = {row.message_id: row for row in TABLE_II}
        assert (by_id["reqSw"].sender, by_id["reqSw"].receiver) == ("VMG", "ECU")
        assert (by_id["rptSw"].sender, by_id["rptSw"].receiver) == ("ECU", "VMG")
        assert (by_id["reqApp"].sender, by_id["reqApp"].receiver) == ("VMG", "ECU")
        assert (by_id["rptUpd"].sender, by_id["rptUpd"].receiver) == ("ECU", "VMG")

    def test_type_groups(self):
        groups = {row.message_id: row.type_group for row in TABLE_II}
        assert groups["reqSw"] == groups["rptSw"] == "Diagnose"
        assert groups["reqApp"] == groups["rptUpd"] == "Update"

    def test_render_contains_all_rows(self):
        text = render_table_ii()
        for message in BASIC_MESSAGES:
            assert message in text

    def test_rows_accessor(self):
        assert len(table_ii_rows()) == 4


class TestChannels:
    def test_basic_channels_match_paper_declaration(self):
        send, rec = basic_channels()
        assert send.name == "send" and rec.name == "rec"
        assert send.field_domains == (BASIC_MESSAGES,)

    def test_basic_alphabet_size(self):
        assert len(basic_alphabet()) == 8  # 4 messages x 2 channels

    def test_extended_scope(self):
        channels = extended_channels()
        assert set(channels) == {"srv", "send", "rec"}
        for channel in channels.values():
            assert channel.field_domains == (EXTENDED_MESSAGES,)
        assert set(SERVER_MESSAGES) <= set(EXTENDED_MESSAGES)

    def test_can_specs_cover_basic_messages(self):
        assert set(CAN_MESSAGE_SPECS) == set(BASIC_MESSAGES)
        ids = [spec.can_id for spec in CAN_MESSAGE_SPECS.values()]
        assert len(ids) == len(set(ids))  # unique identifiers
