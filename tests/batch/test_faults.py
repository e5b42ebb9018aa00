"""Fault injection: a broken job fails alone, the batch completes.

These tests drive the executor through its whole failure taxonomy with
``selftest`` specs -- a worker that raises, one that sleeps past its
deadline, one that ``os._exit``\\ s mid-job (the segfault stand-in: no
teardown, no result on the pipe) -- and assert the siblings' results are
untouched.
"""

import threading
import time

from repro.batch.executor import run_batch
from repro.batch.spec import CheckSpec


def test_mixed_faults_isolate_per_job():
    specs = [
        CheckSpec.selftest("pass", check_id="ok-head"),
        CheckSpec.selftest("raise", check_id="raiser"),
        CheckSpec.selftest("sleep:30", check_id="sleeper"),
        CheckSpec.selftest("exit:3", check_id="crasher"),
        CheckSpec.selftest("pass", check_id="ok-tail"),
    ]
    report = run_batch(specs, jobs=2, timeout=0.5)
    verdicts = {r.check_id: r.verdict for r in report.results}
    assert verdicts == {
        "ok-head": "PASS",
        "raiser": "ERROR",
        "sleeper": "TIMEOUT",
        "crasher": "ERROR",
        "ok-tail": "PASS",
    }
    by_id = {r.check_id: r for r in report.results}
    assert "RuntimeError" in by_id["raiser"].error
    assert "timeout" in by_id["sleeper"].error
    assert "exited with code 3" in by_id["crasher"].error
    assert not report.ok
    assert report.counts() == {"PASS": 2, "ERROR": 2, "TIMEOUT": 1}


def test_timeout_terminates_promptly():
    specs = [CheckSpec.selftest("sleep:30", check_id="s")]
    started = time.perf_counter()
    report = run_batch(specs, jobs=1, timeout=0.3)
    elapsed = time.perf_counter() - started
    assert report.results[0].verdict == "TIMEOUT"
    assert elapsed < 10.0  # terminated, not joined to completion


def test_crash_with_exit_code_zero_is_still_an_error():
    # a worker that exits "successfully" without reporting still failed its job
    report = run_batch([CheckSpec.selftest("exit:0", check_id="z")], jobs=1)
    assert report.results[0].verdict == "ERROR"
    assert "exited with code 0" in report.results[0].error


def test_batch_timeout_cancels_the_remainder():
    specs = [CheckSpec.selftest("sleep:30", check_id=str(i)) for i in range(4)]
    started = time.perf_counter()
    report = run_batch(specs, jobs=2, batch_timeout=0.4)
    assert time.perf_counter() - started < 10.0
    assert [r.verdict for r in report.results] == ["CANCELLED"] * 4
    assert all(r.error == "batch cancelled" for r in report.results)


def test_external_cancellation_event():
    cancel = threading.Event()
    specs = [CheckSpec.selftest("sleep:30", check_id=str(i)) for i in range(3)]
    timer = threading.Timer(0.2, cancel.set)
    timer.start()
    try:
        report = run_batch(specs, jobs=2, timeout=60, cancel=cancel)
    finally:
        timer.cancel()
    assert [r.verdict for r in report.results] == ["CANCELLED"] * 3


def test_cancellation_applies_inline_too():
    cancel = threading.Event()
    cancel.set()
    report = run_batch([CheckSpec.selftest("pass", check_id="x")], inline=True, cancel=cancel)
    assert report.results[0].verdict == "CANCELLED"


def test_faults_do_not_poison_later_jobs_on_the_same_slot():
    # jobs=1 forces every job through the same slot, one after another;
    # a crash in the middle must not break the scheduler's reuse of it
    specs = [
        CheckSpec.selftest("exit:9", check_id="boom"),
        CheckSpec.selftest("pass", check_id="after-1"),
        CheckSpec.selftest("raise", check_id="boom-2"),
        CheckSpec.selftest("pass", check_id="after-2"),
    ]
    report = run_batch(specs, jobs=1, timeout=30)
    assert [r.verdict for r in report.results] == ["ERROR", "PASS", "ERROR", "PASS"]
