"""Golden corpus replay through the flat-array kernel path, cold and warm.

The kernel refactor's bar is byte-identical behaviour: every verdict,
counterexample trace and search statistic pinned by the 30-case golden
corpus must come out of the CSR kernel path exactly as the corpus recorded
it -- on a cold compile, and again on a warm load where every automaton is
adopted straight from the binary disk-cache arrays.
"""

import json
import os

from repro.batch.executor import run_batch
from repro.csp.kernel import CompactLTS

from .test_conformance import CASE_FILES, canonical_bytes, expected_bytes, load_case


def _corpus():
    return zip(*(load_case(name) for name in CASE_FILES))


def test_cold_kernel_replay_is_byte_identical(tmp_path):
    specs, expectations = _corpus()
    cache_dir = str(tmp_path / "cache")
    report = run_batch(specs, inline=True, cache_dir=cache_dir)
    for result, expected in zip(report.results, expectations):
        assert canonical_bytes(result) == expected_bytes(expected)
    entries = os.listdir(cache_dir)
    assert entries, "the cold run should persist kernel entries"
    # every persisted entry is a binary kernel dump, nothing else
    assert all(name.endswith(".ltsb") for name in entries)


def test_warm_kernel_replay_is_byte_identical(tmp_path):
    specs, expectations = _corpus()
    cache_dir = str(tmp_path / "cache")
    run_batch(specs, inline=True, cache_dir=cache_dir)
    before = sorted(os.listdir(cache_dir))
    warm = run_batch(specs, inline=True, cache_dir=cache_dir)
    for result, expected in zip(warm.results, expectations):
        assert canonical_bytes(result) == expected_bytes(expected)
    # the warm run served every compile from disk: no new entries appeared
    assert sorted(os.listdir(cache_dir)) == before


def test_warm_entries_load_as_frozen_kernels(tmp_path):
    """A warm read adopts the stored arrays directly into a CompactLTS."""
    from repro.csp.events import AlphabetTable, Event
    from repro.csp.lts import compile_lts
    from repro.csp.process import Environment, Prefix, Stop
    from repro.engine.cache import structural_key
    from repro.engine.diskcache import DiskCache

    process = Prefix(Event("a"), Prefix(Event("b"), Stop()))
    env = Environment()
    lts = compile_lts(process, env)
    disk = DiskCache(str(tmp_path))
    assert disk.put_lts(structural_key(process, env), lts)
    loaded = disk.get_lts(structural_key(process, env), table=AlphabetTable())
    assert isinstance(loaded, CompactLTS)
    # already packed: the CSR arrays exist without any build buffer left
    offsets, events, targets = loaded.csr_arrays()
    assert list(offsets) == [0, 1, 2, 2]
    assert len(events) == len(targets) == 2
