"""Fuzzer efficacy for the learned_vs_extracted oracle: injected bug found.

The learning analogue of ``test_bug_injection.py``: reverting the PR-1
transmit-queue arbitration widening (``relax_bus_order`` becomes the
identity) makes the extracted model order-rigid where the real program is
not.  The black-box learner never reads the source, so its reference
teacher trips over the first multi-output activation: under the multiset
observation abstraction *two* queued responses already expose the bug
(the simulator drains them in either order; the un-widened model admits
only one).  A budgeted campaign must find that divergence, shrink it to a
minimal program, and persist a replayable corpus case.
"""

import repro.translator.extractor as extractor_module
from repro.quickcheck.corpus import corpus_files, load_case
from repro.quickcheck.oracles import ORACLES, get_oracles
from repro.quickcheck.runner import run_campaign

#: Seed/budget pinned so the injected bug is found deterministically well
#: within the budget (three failures for this seed).
SEED = 0
BUDGET = 40


def test_injected_arbitration_bug_is_found_shrunk_and_persisted(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(extractor_module, "relax_bus_order", lambda b: b)
    report = run_campaign(
        get_oracles("learned_vs_extracted"),
        seed=SEED,
        budget=BUDGET,
        corpus_dir=str(tmp_path),
    )
    assert not report.ok, "the learner missed a real injected soundness bug"

    failure = report.failures[0]
    program = failure.shrunk
    # minimality: one handler whose body is exactly the two outputs needed
    # to make the multiset abstraction diverge from the rigid model (one
    # output alone learns identically with or without the widening)
    assert len(program.handlers) == 1
    assert program.render().count("output(") == 2
    assert "diverge" in failure.message

    # the shrunk repro is persisted and replays to the same violation while
    # the bug is still in place
    paths = corpus_files(str(tmp_path))
    assert len(paths) == len(report.failures)
    case = load_case(paths[0])
    assert case.oracle == "learned_vs_extracted"
    assert case.value == failure.shrunk
    assert case.replay() is not None


def test_fixed_extractor_passes_the_same_inputs(tmp_path, monkeypatch):
    """The same campaign slice is green without the injection -- the oracle
    reacts to the bug, not to the inputs."""
    with monkeypatch.context() as patched:
        patched.setattr(extractor_module, "relax_bus_order", lambda b: b)
        report = run_campaign(
            get_oracles("learned_vs_extracted"),
            seed=SEED,
            budget=BUDGET,
            corpus_dir=str(tmp_path),
        )
    assert report.failures
    oracle = ORACLES["learned_vs_extracted"]
    for failure in report.failures:
        # with the real arbitration model restored, every shrunk repro passes
        assert oracle.violation(failure.shrunk) is None
