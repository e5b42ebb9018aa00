"""The unified structural-key layer (:mod:`repro.exec.keys`).

Half of these are *stability fixtures*: checked-in digest values that pin
the key scheme itself.  Anything that changes them -- a codec tweak, a new
spec-document field, touching a version constant -- silently severs every
existing ``--result-cache`` store from its entries, so it has to show up in
review as a fixture diff, not as a mystery cold run.
"""

import hashlib
import json

from repro.batch.spec import CheckSpec
from repro.csp.events import Event
from repro.csp.process import Prefix, STOP
from repro.exec.keys import (
    DISKCACHE_FORMAT_VERSION,
    ENGINE_SEMANTICS_VERSION,
    RESULT_FORMAT_VERSION,
    lts_key_digest,
    result_key_digest,
    result_key_material,
    spec_material,
    strip_label,
    structural_key,
)


def _fixture_specs():
    term = Prefix(Event("a"), STOP)
    return {
        "ref": CheckSpec.refinement(term, term, "T", name="fixture"),
        "prop": CheckSpec.property_check(
            term, "deadlock free", passes="none", max_states=1234
        ),
        "req": CheckSpec.requirement("R01", check_id="label-ignored"),
    }


#: pinned digests -- a diff here means every deployed result cache goes cold
STRUCTURAL_FIXTURES = {
    "ref": "fbfba80caeeadfa7628f4d465c9fb8ea73784dc144d66ce5acc07286a6e1bd18",
    "prop": "6eee2f30784d95931830b6cb861ea217dc97d05013f515e108fd2f2b936ca329",
    "req": "a25a4b18f7a8d3553c9ec16941ec8177c5b7944cee12535f72f7720dbaa8b2d2",
}
RESULT_FIXTURES = {
    "ref": "0272a3ea2d2c0ad19bdd75f61fddf5671e1ad0a0ab5c2b6b4c70c708ae0b1a2c",
    "prop": "e663921e455eb8eaf16b75f8c7a4f5bb56ca8acc08c5082e901a0270ad096006",
    "req": "1d23b2ba0aeccc9eb3e8931df131e9e8b52aac6e57972b7fe66cd20ce2f4d33b",
}


def test_versions_are_the_pinned_generation():
    # bumping any of these is deliberate cache invalidation; the fixture
    # digests below must be regenerated in the same commit
    assert ENGINE_SEMANTICS_VERSION == 1
    assert RESULT_FORMAT_VERSION == 1
    assert DISKCACHE_FORMAT_VERSION == 2


def test_structural_key_fixtures_are_stable():
    for label, spec in _fixture_specs().items():
        assert structural_key(spec.to_doc()) == STRUCTURAL_FIXTURES[label]


def test_result_key_fixtures_are_stable():
    for label, spec in _fixture_specs().items():
        assert result_key_digest(spec.to_doc()) == RESULT_FIXTURES[label]


def test_lts_key_fixture_is_stable():
    key = (("lts", "v1"), ("fp", "abc"))
    assert (
        lts_key_digest(key, ("tau_loop", "sbisim"))
        == "583e2947a3e4fd4a1b30ac4b8d4272eae3dae805e89df3a7145154f06a6d1b3a"
    )
    assert (
        lts_key_digest(key)
        == "32d1b41dc8852b61f01ed35a1550bcd24ea9493e1685b6a18ee107a39c81ebe7"
    )


def test_lts_key_keeps_the_historical_shape():
    # existing .ltsb stores must stay warm across the refactor: the digest
    # is still sha256(repr((format, key, passes)))
    key = (("fp", "x"),)
    material = repr((DISKCACHE_FORMAT_VERSION, key, ("p1",)))
    assert (
        lts_key_digest(key, ("p1",))
        == hashlib.sha256(material.encode("utf-8")).hexdigest()
    )


def test_id_label_does_not_participate():
    term = Prefix(Event("a"), STOP)
    anon = CheckSpec.refinement(term, term, "T").to_doc()
    labelled = CheckSpec.refinement(term, term, "T", check_id="mine").to_doc()
    assert "id" not in strip_label(labelled)
    assert structural_key(anon) == structural_key(labelled)
    assert result_key_digest(anon) == result_key_digest(labelled)


def test_name_does_participate():
    # the name flows into the canonical result, so sharing an entry across
    # names would relabel one requester's output with another's title
    term = Prefix(Event("a"), STOP)
    named = CheckSpec.refinement(term, term, "T", name="one").to_doc()
    renamed = CheckSpec.refinement(term, term, "T", name="two").to_doc()
    assert structural_key(named) != structural_key(renamed)


def test_pass_config_and_budget_participate():
    term = Prefix(Event("a"), STOP)
    base = CheckSpec.property_check(term, "deadlock free").to_doc()
    other_passes = CheckSpec.property_check(
        term, "deadlock free", passes="none"
    ).to_doc()
    other_budget = CheckSpec.property_check(
        term, "deadlock free", max_states=7
    ).to_doc()
    keys = {
        result_key_digest(base),
        result_key_digest(other_passes),
        result_key_digest(other_budget),
    }
    assert len(keys) == 3


def test_result_material_wraps_versions_around_the_spec():
    doc = _fixture_specs()["ref"].to_doc()
    material = result_key_material(doc)
    assert material.startswith(
        "[{},{},".format(RESULT_FORMAT_VERSION, ENGINE_SEMANTICS_VERSION)
    )
    assert json.loads(material) == [
        RESULT_FORMAT_VERSION,
        ENGINE_SEMANTICS_VERSION,
        spec_material(doc),
    ]


def test_delegating_modules_share_this_implementation():
    # one copy of the key code, everyone imports it from repro.exec.keys
    from repro.engine import diskcache
    from repro.server import core, protocol

    assert core.structural_key is structural_key
    assert core.strip_label is strip_label
    assert not hasattr(protocol, "structural_key")
    assert not hasattr(protocol, "strip_label")
    assert diskcache.lts_key_digest is lts_key_digest
    assert diskcache.DISKCACHE_FORMAT_VERSION is DISKCACHE_FORMAT_VERSION
    assert not hasattr(diskcache, "key_digest")
