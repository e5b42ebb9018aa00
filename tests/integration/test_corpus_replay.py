"""Tier-1 corpus replay: every checked-in fuzz repro must stay green.

``tests/corpus/`` pins inputs that once exposed (or characterise) real
toolchain bugs, serialised by ``repro.quickcheck.corpus``.  Each file is
re-run through its recorded oracle on every test run -- a regression suite
the fuzzer grows by itself (``cspfuzz --corpus`` writes the same format).
"""

import os

import pytest

from repro.quickcheck.corpus import corpus_files, load_case, replay_file
from repro.quickcheck.oracles import ORACLES

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS_PATHS = corpus_files(CORPUS_DIR)


def test_the_corpus_is_not_empty():
    assert len(CORPUS_PATHS) >= 5


@pytest.mark.parametrize(
    "path", CORPUS_PATHS, ids=[os.path.basename(p) for p in CORPUS_PATHS]
)
def test_corpus_case_replays_green(path):
    green, message = replay_file(path)
    assert green, "{} regressed: {}".format(os.path.basename(path), message)


@pytest.mark.parametrize(
    "path", CORPUS_PATHS, ids=[os.path.basename(p) for p in CORPUS_PATHS]
)
def test_corpus_case_is_well_formed(path):
    case = load_case(path)
    assert case.oracle in ORACLES
    assert case.message  # each pin documents why it exists


def test_corpus_covers_most_oracles():
    recorded = {load_case(path).oracle for path in CORPUS_PATHS}
    # at least the historically bug-prone oracles must have a pinned repro
    assert {"extractor", "lazy-eager", "semantics", "laws"} <= recorded
