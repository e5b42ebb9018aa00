"""Unit tests for the discrete-event scheduler and timers."""

import pytest

from repro.canbus.scheduler import Scheduler
from repro.canbus.timers import Timer


class TestScheduler:
    def test_events_run_in_time_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.at(30, lambda: order.append("late"))
        scheduler.at(10, lambda: order.append("early"))
        scheduler.at(20, lambda: order.append("middle"))
        scheduler.run()
        assert order == ["early", "middle", "late"]

    def test_same_time_runs_in_scheduling_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.at(5, lambda: order.append(1))
        scheduler.at(5, lambda: order.append(2))
        scheduler.run()
        assert order == [1, 2]

    def test_clock_advances(self):
        scheduler = Scheduler()
        seen = []
        scheduler.at(42, lambda: seen.append(scheduler.now))
        scheduler.run()
        assert seen == [42] and scheduler.now == 42

    def test_after_is_relative(self):
        scheduler = Scheduler()
        seen = []
        scheduler.at(10, lambda: scheduler.after(5, lambda: seen.append(scheduler.now)))
        scheduler.run()
        assert seen == [15]

    def test_cannot_schedule_into_past(self):
        scheduler = Scheduler()
        scheduler.at(10, lambda: None)
        scheduler.run()
        with pytest.raises(ValueError):
            scheduler.at(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().after(-1, lambda: None)

    def test_cancellation(self):
        scheduler = Scheduler()
        fired = []
        handle = scheduler.at(10, lambda: fired.append(1))
        handle.cancel()
        scheduler.run()
        assert fired == []

    def test_run_until_stops_at_horizon(self):
        scheduler = Scheduler()
        fired = []
        scheduler.at(10, lambda: fired.append("in"))
        scheduler.at(100, lambda: fired.append("out"))
        scheduler.run(until=50)
        assert fired == ["in"]
        assert scheduler.pending() == 1

    def test_max_events_guard(self):
        scheduler = Scheduler()

        def reschedule():
            scheduler.after(1, reschedule)

        scheduler.after(1, reschedule)
        executed = scheduler.run(max_events=100)
        assert executed == 100

    def test_step_returns_false_when_empty(self):
        assert Scheduler().step() is False


class TestTimer:
    def test_fires_once(self):
        scheduler = Scheduler()
        fired = []
        timer = Timer("t", scheduler)
        timer.on_expiry(lambda t: fired.append(scheduler.now))
        timer.set(5)
        scheduler.run()
        assert fired == [5000]  # msTimer: 5 ms = 5000 us

    def test_stimer_unit(self):
        scheduler = Scheduler()
        fired = []
        timer = Timer("t", scheduler, unit_us=1_000_000)
        timer.on_expiry(lambda t: fired.append(scheduler.now))
        timer.set(2)
        scheduler.run()
        assert fired == [2_000_000]

    def test_reset_rearms(self):
        scheduler = Scheduler()
        fired = []
        timer = Timer("t", scheduler)
        timer.on_expiry(lambda t: fired.append(scheduler.now))
        timer.set(10)
        timer.set(3)  # re-arm earlier; old expiry cancelled
        scheduler.run()
        assert fired == [3000]

    def test_cancel(self):
        scheduler = Scheduler()
        fired = []
        timer = Timer("t", scheduler)
        timer.on_expiry(lambda t: fired.append(1))
        timer.set(5)
        timer.cancel()
        scheduler.run()
        assert fired == []

    def test_is_running_and_time_to_elapse(self):
        scheduler = Scheduler()
        timer = Timer("t", scheduler)
        assert not timer.is_running()
        assert timer.time_to_elapse() == -1
        timer.set(5)
        assert timer.is_running()
        assert timer.time_to_elapse() == 5

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timer("t", Scheduler()).set(-1)

    def test_one_shot_semantics(self):
        scheduler = Scheduler()
        fired = []
        timer = Timer("t", scheduler)
        timer.on_expiry(lambda t: fired.append(1))
        timer.set(1)
        scheduler.run()
        scheduler.after(0, lambda: None)
        scheduler.run()
        assert fired == [1]  # did not re-fire
