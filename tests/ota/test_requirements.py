"""Unit tests for the Table III requirement checks."""

import pytest

from repro.ota.models import build_secured_system
from repro.ota.requirements import (
    TABLE_III,
    check_all,
    check_requirement,
    injective_agreement_check,
    render_table_iii,
    requirement,
)


class TestTable:
    def test_five_requirements(self):
        assert [row.req_id for row in TABLE_III] == ["R01", "R02", "R03", "R04", "R05"]

    def test_texts_match_paper(self):
        assert "software inventory request" in requirement("R01").text
        assert "software list response" in requirement("R02").text
        assert "check the package contents" in requirement("R03").text
        assert "software update result" in requirement("R04").text
        assert "shared keys" in requirement("R05").text

    def test_unknown_requirement(self):
        with pytest.raises(KeyError):
            requirement("R99")
        with pytest.raises(KeyError):
            check_requirement("R99")

    def test_render_contains_ids(self):
        text = render_table_iii()
        for row in TABLE_III:
            assert row.req_id in text


class TestChecks:
    @pytest.mark.parametrize("req_id", ["R01", "R02", "R03", "R04", "R05"])
    def test_each_requirement_passes(self, req_id):
        result = check_requirement(req_id)
        assert result.passed, result.summary()

    def test_check_all_returns_pairs(self):
        results = check_all()
        assert len(results) == 5
        for row, result in results:
            assert result.passed, "{}: {}".format(row.req_id, result.summary())


class TestInjectiveAgreement:
    def test_mac_only_vulnerable_to_replay(self):
        result = injective_agreement_check(build_secured_system("mac"))
        assert not result.passed
        # the violation is a second apply of the same legitimate send
        applies = [
            e
            for e in result.counterexample.full_trace
            if e.channel == "apply"
        ]
        assert len(applies) == 2

    def test_nonces_restore_injectivity(self):
        result = injective_agreement_check(build_secured_system("mac_nonce"))
        assert result.passed
