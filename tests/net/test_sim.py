"""Tests for the discrete-event simulation kernel."""

import random

import pytest

from repro.net.sim import PeriodicTimer, SimulationError, Simulator
from tests.helpers import drain


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.schedule(1.5, lambda: order.append("middle"))
        drain(sim)
        assert order == ["early", "middle", "late"]

    def test_same_time_events_fifo(self):
        sim = Simulator()
        order = []
        for index in range(5):
            sim.schedule(1.0, lambda i=index: order.append(i))
        drain(sim)
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        drain(sim)
        assert seen == [3.5]
        assert sim.now == 3.5

    def test_run_until_time_limit(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run_window(5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        drain(sim)
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        sim.cancel(event)
        drain(sim)
        assert fired == ["kept"]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("nested"))

        sim.schedule(1.0, first)
        drain(sim)
        assert fired == ["first", "nested"]
        assert sim.now == 2.0

    def test_run_until_predicate(self):
        sim = Simulator()
        counter = []
        for index in range(10):
            sim.schedule(float(index + 1), lambda i=index: counter.append(i))
        satisfied = sim.run_until(lambda: len(counter) >= 3, timeout=100.0)
        assert satisfied
        assert len(counter) == 3

    def test_run_until_timeout(self):
        sim = Simulator()
        sim.schedule(50.0, lambda: None)
        satisfied = sim.run_until(lambda: False, timeout=10.0)
        assert not satisfied
        assert sim.now == 10.0

    def test_run_until_a_past_time_cannot_rewind_the_clock(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.schedule(9.0, lambda: None)  # still queued past the horizon
        sim.run_window(2.0)
        with pytest.raises(SimulationError, match="already at 2.0"):
            sim.run_window(1.0)
        assert sim.now == 2.0
        assert sim.run_window(2.0) == 0  # the present is not the past
        assert sim.now == 2.0

    def test_negative_timeout_cannot_rewind_the_clock(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.schedule(9.0, lambda: None)
        sim.run_window(2.0)
        with pytest.raises(SimulationError, match="non-negative"):
            sim.run_until(lambda: False, timeout=-1.0)
        assert sim.now == 2.0

    def test_nan_timeout_is_rejected_instead_of_never_expiring(self):
        sim = Simulator()
        # a periodic timer re-arms forever, as the transports' resend timers
        # do: with a NaN deadline no event time ever exceeds it
        PeriodicTimer(sim, 1.0, lambda: None).start()
        with pytest.raises(SimulationError, match="nan"):
            sim.run_until(lambda: False, timeout=float("nan"))
        with pytest.raises(SimulationError, match="nan"):
            sim.run_window(float("nan"))
        assert sim.now == 0.0 and sim.events_processed == 0

    def test_now_is_monotone_over_any_sequence_of_run_calls(self):
        rng = random.Random(17)
        for _ in range(30):
            sim = Simulator()
            for _ in range(20):
                sim.schedule(rng.uniform(0.0, 10.0), lambda: None)
            seen = [sim.now]
            for _ in range(12):
                horizon = rng.choice([sim.now + rng.uniform(0.0, 3.0),
                                      rng.uniform(0.0, 10.0), float("nan")])
                call = rng.choice(["run_window", "run_until"])
                try:
                    if call == "run_window":
                        sim.run_window(horizon)
                    else:
                        sim.run_until(lambda: rng.random() < 0.2,
                                      timeout=horizon - sim.now)
                except SimulationError:
                    pass  # rejected calls must leave the clock alone too
                seen.append(sim.now)
            assert seen == sorted(seen)

    def test_close_drops_queued_events_and_keeps_the_counters(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run_window(2.0)
        sim.close()
        sim.close()
        assert sim.pending_events() == 0
        assert sim.events_processed == 1
        assert sim.now == 2.0
        drain(sim)
        assert fired == [1]

    def test_deterministic_rng(self):
        values_a = [Simulator(seed=42).rng.random() for _ in range(1)]
        values_b = [Simulator(seed=42).rng.random() for _ in range(1)]
        assert values_a == values_b

    def test_run_until_stops_at_the_event_that_satisfies_it(self):
        sim = Simulator()
        fired = []
        for index in range(10):
            sim.schedule(1.0, lambda i=index: fired.append(i))
        assert sim.run_until(lambda: len(fired) == 4, timeout=5.0)
        assert fired == [0, 1, 2, 3]
        assert sim.events_processed == 4 and sim.pending_events() == 6
        assert sim.now == 1.0

    def test_zero_delay_runs_at_the_current_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append("now"))
        drain(sim)
        assert fired == ["now"]
        assert sim.now == 0.0

    def test_cancelled_backlog_is_compacted(self):
        # Heavy timer churn (cancel/restart) must not let dead entries pile
        # up: once cancelled events dominate, the queue compacts in place.
        sim = Simulator()
        events = [sim.schedule(1000.0, lambda: None) for _ in range(500)]
        for event in events:
            sim.cancel(event)  # each cancel runs the compaction check
        sim.schedule(1.0, lambda: None)
        assert sim.pending_events() < 100

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(5.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim._cancelled_queued == 1
        drain(sim)
        assert sim._cancelled_queued == 0

    def test_cancel_after_pop_does_not_inflate_tally(self):
        # Regression: stopping a periodic timer from inside its own callback
        # cancels the already-popped event; that must not count toward the
        # cancelled-queued tally or compaction fires on queues with nothing
        # to reclaim.
        sim = Simulator()
        timers = []

        def make_stopper(timer_index):
            def fire():
                timers[timer_index].stop()
            return fire

        for index in range(100):
            timers.append(PeriodicTimer(sim, 1.0, make_stopper(index)))
            timers[index].start()
        sim.run_window(5.0)
        assert sim._cancelled_queued == 0

    def test_compaction_preserves_order_and_determinism(self):
        def drive(compact: bool) -> list:
            sim = Simulator(seed=9)
            order = []
            for index in range(200):
                sim.schedule(1.0 + (index % 7) * 0.25,
                             lambda i=index: order.append(i))
            victims = [sim.schedule(50.0, lambda: order.append("dead"))
                       for _ in range(300 if compact else 0)]
            for victim in victims:
                sim.cancel(victim)
            sim.schedule(0.5, lambda: order.append("first"))
            drain(sim)
            return order
        assert drive(compact=True) == drive(compact=False)


class TestPeriodicTimer:
    def test_fires_repeatedly_until_stopped(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_window(5.5)
        timer.stop()
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stop_prevents_future_firings(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.schedule(2.5, timer.stop)
        sim.run_window(10.0)
        assert fired == [1.0, 2.0]

    def test_jitter_stays_within_bounds(self):
        sim = Simulator(seed=3)
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now), jitter=0.5)
        timer.start()
        sim.run_window(20.0)
        timer.stop()
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        assert all(1.0 <= gap <= 1.5 + 1e-9 for gap in gaps)

    def test_restart_rearms_instead_of_forking_a_second_chain(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.schedule(0.5, timer.start)
        sim.run_window(4.0)
        assert fired == [1.5, 2.5, 3.5]

    def test_restart_from_its_own_callback_keeps_one_chain(self):
        sim = Simulator()
        fired = []

        def fire():
            fired.append(sim.now)
            timer.start()

        timer = PeriodicTimer(sim, 1.0, fire)
        timer.start()
        sim.run_window(3.5)
        assert fired == [1.0, 2.0, 3.0]
        assert sim.pending_events() == 1

    def test_stop_before_the_first_firing(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(1))
        timer.start()
        assert not timer._stopped
        timer.stop()
        drain(sim)
        assert fired == []
        assert timer._stopped

    def test_stop_twice_leaves_one_cancelled_entry(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.start()
        timer.stop()
        timer.stop()
        assert sim._cancelled_queued == 1 and sim.pending_events() == 1
        drain(sim)
        assert sim._cancelled_queued == 0 and sim.events_processed == 0

    def test_a_stopped_timer_starts_again_one_interval_later(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.schedule(1.5, timer.stop)
        sim.schedule(3.25, timer.start)
        sim.run_window(5.5)
        assert fired == [1.0, 4.25, 5.25]

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            PeriodicTimer(Simulator(), 0.0, lambda: None)
