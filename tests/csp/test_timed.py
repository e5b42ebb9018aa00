"""Tests for the tock-time extension (paper Sec. VII-B)."""

import pytest

from repro import api
from repro.csp.events import Alphabet, event
from repro.csp.lts import compile_lts
from repro.csp.process import Environment, Prefix, SKIP, STOP, ref, sequence
from repro.csp.timed import (
    TOCK,
    deadline_spec,
    periodic,
    timed_run,
    timeout_process,
    timer_to_tock_monitor,
    tockify_lts,
    wait,
)

A, B = event("a"), event("b")
ALPHABET = Alphabet.of(A, B)


class TestWait:
    def test_wait_builds_tock_chain(self):
        assert wait(2, STOP) == Prefix(TOCK, Prefix(TOCK, STOP))

    def test_wait_zero_is_identity(self):
        assert wait(0, SKIP) == SKIP

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            wait(-1, STOP)


class TestTimedRun:
    def test_allows_events_and_time(self):
        env = Environment()
        spec = timed_run(ALPHABET, env, "TR")
        lts = compile_lts(spec, env)
        assert lts.walk([A, TOCK, TOCK, B, TOCK]) is not None


class TestTimeout:
    def make(self, tocks):
        env = Environment()
        process = Prefix(A, STOP)
        fallback = Prefix(B, STOP)
        return timeout_process(process, tocks, fallback, env, "TO"), env

    def test_event_available_before_timeout(self):
        timeout, env = self.make(2)
        lts = compile_lts(timeout, env)
        assert lts.walk([A]) is not None
        assert lts.walk([TOCK, A]) is not None

    def test_fallback_after_timeout(self):
        timeout, env = self.make(2)
        lts = compile_lts(timeout, env)
        assert lts.walk([TOCK, TOCK, B]) is not None
        # the original offer is withdrawn once time runs out
        assert lts.walk([TOCK, TOCK, A]) is None

    def test_fallback_not_available_early(self):
        timeout, env = self.make(2)
        lts = compile_lts(timeout, env)
        assert lts.walk([B]) is None

    def test_zero_tocks_rejected(self):
        with pytest.raises(ValueError):
            self.make(0)


class TestPeriodic:
    def test_exact_period(self):
        env = Environment()
        task = periodic(A, 3, env, "P3")
        lts = compile_lts(task, env)
        assert lts.walk([A, TOCK, TOCK, TOCK, A]) is not None
        assert lts.walk([A, TOCK, A]) is None  # too early
        assert lts.walk([A, TOCK, TOCK, TOCK, TOCK]) is None  # too late

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            periodic(A, 0, Environment())


class TestDeadlineSpec:
    def make_spec(self, deadline=2):
        env = Environment()
        spec = deadline_spec(A, B, deadline, ALPHABET, env, "DL")
        return spec, env

    def test_prompt_response_passes(self):
        spec, env = self.make_spec()
        env.bind("IMPL", Prefix(A, Prefix(TOCK, Prefix(B, ref("IMPL")))))
        assert api.check_refinement(spec, ref("IMPL"), "T", env=env).passed

    def test_response_at_deadline_passes(self):
        spec, env = self.make_spec(2)
        env.bind("IMPL", Prefix(A, wait(2, Prefix(B, ref("IMPL")))))
        assert api.check_refinement(spec, ref("IMPL"), "T", env=env).passed

    def test_late_response_fails(self):
        spec, env = self.make_spec(2)
        env.bind("IMPL", Prefix(A, wait(3, Prefix(B, ref("IMPL")))))
        result = api.check_refinement(spec, ref("IMPL"), "T", env=env)
        assert not result.passed
        # the violation is the third tock after the trigger
        assert result.counterexample.forbidden == TOCK

    def test_time_free_outside_window(self):
        spec, env = self.make_spec(1)
        env.bind("IMPL", Prefix(TOCK, Prefix(TOCK, Prefix(TOCK, ref("IMPL")))))
        assert api.check_refinement(spec, ref("IMPL"), "T", env=env).passed


class TestTimerMonitor:
    def make(self, duration=3):
        env = Environment()
        monitor = timer_to_tock_monitor("t1", duration, env, name="TM")
        return monitor, env

    def test_fires_exactly_after_duration(self):
        monitor, env = self.make(3)
        lts = compile_lts(monitor, env)
        arm = event("setTimer", "t1")
        fire = event("timeout", "t1")
        assert lts.walk([arm, TOCK, TOCK, TOCK, fire]) is not None
        assert lts.walk([arm, TOCK, fire]) is None  # too early
        assert lts.walk([arm, TOCK, TOCK, TOCK, TOCK]) is None  # must fire

    def test_cancel_disarms(self):
        monitor, env = self.make(2)
        lts = compile_lts(monitor, env)
        arm = event("setTimer", "t1")
        cancel = event("cancelTimer", "t1")
        fire = event("timeout", "t1")
        assert lts.walk([arm, cancel, TOCK, TOCK, TOCK]) is not None
        assert lts.walk([arm, cancel, TOCK, TOCK, fire]) is None

    def test_rearm_restarts_countdown(self):
        monitor, env = self.make(2)
        lts = compile_lts(monitor, env)
        arm = event("setTimer", "t1")
        fire = event("timeout", "t1")
        assert lts.walk([arm, TOCK, arm, TOCK, TOCK, fire]) is not None

    def test_never_fires_unarmed(self):
        monitor, env = self.make(2)
        lts = compile_lts(monitor, env)
        assert lts.walk([event("timeout", "t1")]) is None

    def test_duration_validated(self):
        with pytest.raises(ValueError):
            timer_to_tock_monitor("t", 0, Environment())


class TestTockify:
    def test_adds_self_loops(self):
        lts = compile_lts(sequence(A, B))
        timed = tockify_lts(lts)
        assert timed.walk([TOCK, A, TOCK, TOCK, B, TOCK]) is not None

    def test_preserves_original_behaviour(self):
        lts = compile_lts(sequence(A, B))
        timed = tockify_lts(lts)
        assert timed.walk([A, B]) is not None
        assert timed.walk([B]) is None

    def test_existing_tock_edges_not_duplicated(self):
        env = Environment()
        env.bind("P", Prefix(TOCK, ref("P")))
        lts = compile_lts(ref("P"), env)
        timed = tockify_lts(lts)
        assert timed.transition_count == lts.transition_count


class TestTimedExtractorIntegration:
    def test_extracted_timer_events_compose_with_timed_monitor(self):
        """The extractor's setTimer/timeout events + the timed monitor give
        a deadline-analysable model of the VMG's session timer."""
        from repro.csp.process import GenParallel
        from repro.ota.capl_sources import VMG_SOURCE
        from repro.translator.extractor import ExtractorConfig, ModelExtractor
        from repro.translator.rules import ChannelConvention

        config = ExtractorConfig(
            convention=ChannelConvention("rec", "send"), timer_monitors=False
        )
        result = ModelExtractor(config).extract(VMG_SOURCE, "VMG")
        model = result.load()
        env = model.env
        monitor = timer_to_tock_monitor("sessionTimer", 10, env, name="TSESS")
        sync = Alphabet.of(
            event("setTimer", "sessionTimer"),
            event("timeout", "sessionTimer"),
            event("cancelTimer", "sessionTimer"),
        )
        timed_vmg = GenParallel(model.process("VMG"), monitor, sync)
        lts = compile_lts(timed_vmg, env)
        arm = event("setTimer", "sessionTimer")
        fire = event("timeout", "sessionTimer")
        # the timer fires exactly 10 tocks after on-start arms it
        assert lts.walk([arm] + [TOCK] * 10 + [fire]) is not None
        assert lts.walk([arm] + [TOCK] * 9 + [fire]) is None
