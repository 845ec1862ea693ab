"""Simulator scheduling validation and barrier windows.

Covers the PR-9 additions to :mod:`repro.net.sim`:

* ``schedule`` / ``schedule_at`` reject NaN and past times with a
  :class:`SimulationError` naming the offending delay and callback
  (before, a NaN delay silently poisoned the heap ordering and every later
  pop became nondeterministic);
* ``run_window`` -- the conservative-synchronization primitive -- is
  inclusive of its horizon, fast-forwards empty windows, honours
  cancellations and runs the poll hook at per-event cadence.
"""

from functools import partial

import pytest

from repro.net.sim import SimulationError, Simulator
from tests.helpers import drain


# ---------------------------------------------------------------------------
# schedule validation (satellite: NaN / negative delays)
# ---------------------------------------------------------------------------

def resend() -> None:
    """A named callback: the errors below name it."""


class TestScheduleValidation:
    def test_nan_delay_raises_and_names_the_callback(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match=r"resend after a NaN"):
            sim.schedule(float("nan"), resend)

    def test_nan_delay_names_the_function_a_partial_wraps(self):
        # not the partial's arguments: a frame's repr carries its payload
        sim = Simulator()
        with pytest.raises(SimulationError,
                           match=r"^cannot schedule resend after a NaN delay$"):
            sim.schedule(float("nan"), partial(resend, b"x" * 4096))

    def test_negative_delay_raises_with_delay_value(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match=r"resend in the past.*-0\.5"):
            sim.schedule(-0.5, resend)

    def test_zero_delay_is_allowed(self):
        sim = Simulator()
        ran = []
        sim.schedule(0.0, lambda: ran.append(True))
        drain(sim)
        assert ran == [True]

    def test_nan_rejected_before_it_can_poison_heap_order(self):
        # The historical failure mode: NaN compares false against
        # everything, so heapq's sift stops immediately and later pops
        # come out in arbitrary order.  The guard must fire on schedule,
        # not on pop.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events() == 1

    def test_schedule_at_nan_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match=r"resend at a NaN time"):
            sim.schedule_at(float("nan"), resend)

    def test_schedule_at_past_raises_and_names_the_callback(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        drain(sim)
        assert sim.now == 1.0
        with pytest.raises(SimulationError, match=r"resend at 0\.5 before"):
            sim.schedule_at(0.5, resend)

    def test_schedule_at_now_is_allowed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        drain(sim)
        ran = []
        sim.schedule_at(1.0, lambda: ran.append(True))
        drain(sim)
        assert ran == [True]


# ---------------------------------------------------------------------------
# run_window (barrier-window edge cases)
# ---------------------------------------------------------------------------

class TestRunWindow:
    def test_event_exactly_on_horizon_is_included(self):
        # Cross-shard transmissions land exactly on the barrier horizon, so
        # the window boundary must be inclusive.
        sim = Simulator()
        ran = []
        sim.schedule(1.0, lambda: ran.append("on-horizon"))
        sim.schedule(1.0000001, lambda: ran.append("past"))
        processed = sim.run_window(1.0)
        assert ran == ["on-horizon"]
        assert processed == 1
        assert sim.now == 1.0

    def test_empty_window_fast_forwards_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        processed = sim.run_window(2.0)
        assert processed == 0
        assert sim.now == 2.0
        assert sim.pending_events() == 1

    def test_clock_lands_on_horizon_after_events(self):
        sim = Simulator()
        sim.schedule(0.25, lambda: None)
        sim.run_window(1.0)
        assert sim.now == 1.0

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        ran = []
        event = sim.schedule(0.5, lambda: ran.append("cancelled"))
        sim.schedule(0.6, lambda: ran.append("live"))
        sim.cancel(event)
        processed = sim.run_window(1.0)
        assert ran == ["live"]
        assert processed == 1

    def test_poll_runs_after_every_event(self):
        sim = Simulator()
        polls = []
        for delay in (0.1, 0.2, 0.3):
            sim.schedule(delay, lambda: None)
        sim.run_window(0.25, poll=lambda: polls.append(sim.now))
        assert polls == [0.1, 0.2]

    def test_events_scheduled_inside_window_run_in_same_window(self):
        sim = Simulator()
        ran = []
        sim.schedule(0.1, lambda: sim.schedule(0.1, lambda: ran.append("chained")))
        sim.run_window(0.5)
        assert ran == ["chained"]

    def test_consecutive_windows_partition_the_timeline(self):
        sim = Simulator()
        ran = []
        for delay in (0.5, 1.0, 1.5, 2.0):
            sim.schedule(delay, lambda d=delay: ran.append(d))
        assert sim.run_window(1.0) == 2
        assert ran == [0.5, 1.0]
        assert sim.run_window(2.0) == 2
        assert ran == [0.5, 1.0, 1.5, 2.0]

    def test_events_processed_counter_advances(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.run_window(1.0)
        assert sim.events_processed == 1


class TestNextEventTime:
    def test_returns_earliest_live_event(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.next_event_time() == 1.0

    def test_skips_cancelled_top(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(first)
        assert sim.next_event_time() == 2.0

    def test_empty_queue_returns_none(self):
        assert Simulator().next_event_time() is None
