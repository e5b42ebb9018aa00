"""The verdict store (:mod:`repro.exec.resultcache`): round trips, and
every way an entry is *refused* -- version skew, corruption, truncation,
key mismatch, non-deterministic verdicts.  The refusal paths are the
soundness surface: a defective entry must degrade to a counted miss, never
to data."""

import json
import os

import pytest

from repro.batch.spec import CheckSpec, JobResult
from repro.csp.events import Event
from repro.csp.process import Prefix, STOP
from repro.exec.keys import result_key_digest
from repro.exec.resultcache import RESULT_SUFFIX, ResultCache, cacheable


def _spec(name="fixture"):
    term = Prefix(Event("a"), STOP)
    return CheckSpec.refinement(term, term, "T", name=name)


def _pass_result(index=0, check_id=None):
    return JobResult(
        index,
        check_id,
        "PASS",
        name="fixture",
        states_explored=2,
        transitions_explored=1,
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "results"))


def test_round_trip_is_canonically_identical(cache):
    doc = _spec().to_doc()
    original = _pass_result()
    assert cache.put(doc, original)
    replayed = cache.get(doc)
    assert replayed is not None
    assert replayed.canonical() == original.canonical()
    assert cache.stats()["result_entries"] == 1
    assert (cache.hits, cache.misses, cache.writes) == (1, 0, 1)


def test_missing_entry_is_a_counted_miss(cache):
    assert cache.get(_spec().to_doc()) is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_hit_relabels_to_the_requester(cache):
    term = Prefix(Event("a"), STOP)
    writer_doc = CheckSpec.refinement(term, term, "T", check_id="writer").to_doc()
    reader_doc = CheckSpec.refinement(term, term, "T", check_id="reader").to_doc()
    cache.put(writer_doc, _pass_result(index=3, check_id="writer"))
    replayed = cache.get(reader_doc, index=9)
    assert replayed is not None
    assert replayed.index == 9
    assert replayed.check_id == "reader"


def test_fail_verdicts_with_counterexamples_round_trip(cache):
    doc = _spec().to_doc()
    original = JobResult(
        0,
        None,
        "FAIL",
        name="fixture",
        counterexample={
            "kind": "trace",
            "trace": ["a"],
            "description": "after <a> ...",
        },
        states_explored=5,
        transitions_explored=4,
    )
    assert cache.put(doc, original)
    replayed = cache.get(doc)
    assert replayed.canonical() == original.canonical()


@pytest.mark.parametrize("verdict", ["ERROR", "TIMEOUT", "CANCELLED"])
def test_nondeterministic_verdicts_are_never_stored(cache, verdict):
    doc = _spec().to_doc()
    refused = JobResult(0, None, verdict, error="environmental")
    assert not cacheable(doc, verdict)
    assert not cache.put(doc, refused)
    assert cache.skipped == 1
    assert len(cache) == 0


def test_selftest_specs_are_never_stored(cache):
    doc = CheckSpec.selftest("pass").to_doc()
    assert not cacheable(doc, "PASS")
    assert not cache.put(doc, _pass_result())
    assert cache.skipped == 1


def test_format_version_skew_is_swept_as_stale(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    path = cache.path_of(doc)
    with open(path, encoding="utf-8") as handle:
        entry = json.load(handle)
    entry["format"] = entry["format"] + 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle)
    assert cache.get(doc) is None
    assert cache.stale == 1
    assert cache.quarantined == 0
    assert not os.path.exists(path), "a stale entry is removed, not retried"
    assert cache.stats()["result_stale"] == 1


def test_engine_version_skew_is_swept_as_stale(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    path = cache.path_of(doc)
    with open(path, encoding="utf-8") as handle:
        entry = json.load(handle)
    entry["engine"] = 999
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle)
    assert cache.get(doc) is None
    assert cache.stale == 1
    assert not os.path.exists(path)


def test_version_bump_changes_the_digest_itself(cache, monkeypatch):
    # the primary invalidation is by construction: a bumped version makes a
    # *different path*, so old entries are simply unreachable
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    old_path = cache.path_of(doc)
    import repro.exec.keys as keys

    monkeypatch.setattr(keys, "ENGINE_SEMANTICS_VERSION", 2)
    assert cache.path_of(doc) != old_path
    assert cache.get(doc) is None
    assert os.path.exists(old_path), "old-generation entries are untouched"


def test_truncated_entry_quarantines(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    path = cache.path_of(doc)
    with open(path, "r+b") as handle:
        handle.truncate(10)
    assert cache.get(doc) is None
    assert cache.quarantined == 1
    assert not os.path.exists(path)
    assert cache.stats()["result_quarantined"] == 1


def test_garbage_entry_quarantines(cache):
    doc = _spec().to_doc()
    path = os.path.join(
        cache.directory, result_key_digest(doc) + RESULT_SUFFIX
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json at all {{{")
    assert cache.get(doc) is None
    assert cache.quarantined == 1
    assert not os.path.exists(path)


def test_stored_key_mismatch_quarantines(cache):
    # a collision or a copied-over file: the digest matches but the stored
    # material does not -- refuse it rather than answer the wrong check
    term = Prefix(Event("a"), STOP)
    doc = CheckSpec.refinement(term, term, "T", name="one").to_doc()
    other = CheckSpec.refinement(term, term, "T", name="two").to_doc()
    cache.put(other, JobResult(0, None, "PASS", name="two"))
    os.replace(cache.path_of(other), cache.path_of(doc))
    assert cache.get(doc) is None
    assert cache.quarantined == 1


def test_stored_uncacheable_verdict_quarantines(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    path = cache.path_of(doc)
    with open(path, encoding="utf-8") as handle:
        entry = json.load(handle)
    entry["result"]["verdict"] = "ERROR"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle)
    assert cache.get(doc) is None
    assert cache.quarantined == 1


def test_missing_result_fields_quarantine(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    path = cache.path_of(doc)
    with open(path, encoding="utf-8") as handle:
        entry = json.load(handle)
    del entry["result"]["states_explored"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle)
    assert cache.get(doc) is None
    assert cache.quarantined == 1


def test_quarantine_does_not_poison_future_writes(cache):
    doc = _spec().to_doc()
    cache.put(doc, _pass_result())
    with open(cache.path_of(doc), "w", encoding="utf-8") as handle:
        handle.write("garbage")
    assert cache.get(doc) is None
    assert cache.put(doc, _pass_result())
    assert cache.get(doc) is not None
    assert cache.hits == 1


def test_entries_have_no_id_on_disk(cache):
    doc = CheckSpec.refinement(
        Prefix(Event("a"), STOP), Prefix(Event("a"), STOP), "T", check_id="x"
    ).to_doc()
    cache.put(doc, _pass_result(check_id="x"))
    with open(cache.path_of(doc), encoding="utf-8") as handle:
        entry = json.load(handle)
    assert "id" not in entry["result"]


def test_clear_empties_the_store(cache):
    cache.put(_spec().to_doc(), _pass_result())
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


def test_stats_names_are_the_wire_contract(cache):
    assert sorted(cache.stats()) == [
        "result_entries",
        "result_hits",
        "result_misses",
        "result_quarantined",
        "result_skipped",
        "result_stale",
        "result_writes",
    ]
