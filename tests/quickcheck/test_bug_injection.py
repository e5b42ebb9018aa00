"""End-to-end fuzzer efficacy: a hand-injected engine bug must be caught.

The acceptance test for the whole subsystem.  Reverting the PR-1
transmit-queue arbitration widening (``relax_bus_order`` becomes the
identity) re-introduces a real historical soundness bug: a handler that
queues three responses can transmit them in an id-arbitrated order the
un-widened model does not admit.  A budgeted ``extractor``-oracle campaign
must find that disagreement, shrink it to a locally minimal program, and
persist it as a replayable corpus file -- all within a small, fixed budget.
"""

import repro.translator.extractor as extractor_module
from repro.quickcheck.corpus import corpus_files, load_case
from repro.quickcheck.oracles import ORACLES, get_oracles
from repro.quickcheck.runner import run_campaign

#: Seed/budget pinned so the injected bug is found deterministically (the
#: first failing case index is 14 for this seed).
SEED = 0
BUDGET = 60


def test_injected_arbitration_bug_is_found_shrunk_and_persisted(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(extractor_module, "relax_bus_order", lambda b: b)
    report = run_campaign(
        get_oracles("extractor"),
        seed=SEED,
        budget=BUDGET,
        corpus_dir=str(tmp_path),
    )
    assert not report.ok, "the fuzzer missed a real injected soundness bug"

    failure = report.failures[0]
    program, stimuli = failure.shrunk
    # minimality: one handler, one stimulus, and a body of exactly the three
    # outputs needed to make CAN-id arbitration observable (the first queued
    # frame transmits immediately; reordering needs two more in the queue)
    assert len(program.handlers) == 1
    assert len(stimuli) == 1
    rendered = program.render()
    assert rendered.count("output(") == 3
    assert "extracted model rejects a real behaviour" in failure.message

    # the shrunk repro is persisted and replays to the same violation while
    # the bug is still in place
    paths = corpus_files(str(tmp_path))
    assert len(paths) == len(report.failures)
    case = load_case(paths[0])
    assert case.oracle == "extractor"
    assert case.value == failure.shrunk
    assert case.replay() is not None


def test_fixed_engine_passes_the_same_inputs(tmp_path, monkeypatch):
    """The same campaign slice is green without the injection -- the oracle
    reacts to the bug, not to the inputs."""
    with monkeypatch.context() as patched:
        patched.setattr(extractor_module, "relax_bus_order", lambda b: b)
        report = run_campaign(
            get_oracles("extractor"),
            seed=SEED,
            budget=BUDGET,
            corpus_dir=str(tmp_path),
        )
    assert report.failures
    oracle = ORACLES["extractor"]
    for failure in report.failures:
        # with the real arbitration model restored, every shrunk repro passes
        assert oracle.violation(failure.shrunk) is None
