"""An event is its heap entry: pins against the event-object kernel.

:class:`repro.net.sim.Simulator` pushes ``[time, seq, callback]`` and hands
that list back as the event's handle; :class:`tests.reference.ReferenceSimulator`
is the kernel as it was, one ``Event`` object (label included) inside a
``(time, seq, event)`` tuple per scheduled callback.  Nothing a run can
observe may tell them apart:

* random programs of schedules, cancellations (also from inside callbacks,
  and of events that already ran) and both run loops fire the same
  callbacks at the same clock, return the same values and count the same
  events;
* whole consensus runs -- one epoch, streaming, sharded multi-hop -- on the
  reference kernel return results equal to the ones on the real kernel;
* the handle is the heap entry, and a dead one (cancelled or fired) stays
  dead.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.net.sim import PeriodicTimer, SimulationError, Simulator
from repro.testbed import harness, sharding
from repro.testbed.harness import run_consensus, run_multihop_consensus
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from tests.helpers import drain
from tests.reference import ReferenceSimulator

#: delays with deliberate ties, so FIFO tie-breaking is exercised
DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.5, 3.0)


def live_events(sim) -> int:
    """Queued events that will still run (either kernel)."""
    if isinstance(sim, ReferenceSimulator):
        return sum(not entry[2].cancelled for entry in sim._queue)
    return sum(entry[2] is not None for entry in sim._queue)


def cancelled_queued(sim) -> int:
    """The compaction tally (either kernel): a cancel of an event that
    already ran must not count."""
    if isinstance(sim, ReferenceSimulator):
        return sim._cancelled_queued[0]
    return sim._cancelled_queued


def drive(kernel, seed: int, steps: int, cancel_storms: bool) -> list:
    """Run one random program on ``kernel``; return everything observable.

    Top-level choices come from ``script``; a callback's reactions come from
    a generator seeded by its own id, so both kernels see the same program
    whatever order they fire it in (and any divergence shows in the log).
    """
    script = random.Random(seed)
    sim = kernel(seed=seed)
    handles: list = []
    log: list = []

    def add(delay: float, depth: int = 0) -> None:
        ident = len(handles)

        def fire() -> None:
            log.append(("fire", ident, sim.now))
            react = random.Random(seed * 100_003 + ident)
            if depth < 3 and react.random() < 0.5:
                add(react.choice(DELAYS), depth + 1)
            if react.random() < 0.25:
                # may hit a queued, a cancelled or an already-fired event
                sim.cancel(handles[react.randrange(len(handles))])

        handles.append(sim.schedule(delay, fire))

    def attempt(name: str, call) -> None:
        try:
            result = call()
        except (SimulationError, ValueError):
            result = "rejected"
        observed = [name, result, sim.now, sim.events_processed,
                    live_events(sim)]
        if not cancel_storms:  # neither kernel compacts below 64 cancels
            observed += [sim.pending_events(), cancelled_queued(sim)]
        log.append(tuple(observed))

    for _ in range(steps):
        op = script.randrange(10)
        if op <= 2:
            for _ in range(script.randint(1, 6)):
                add(script.choice(DELAYS) + script.choice((0.0, 0.125)))
        elif op == 3 and handles:
            for _ in range(80 if cancel_storms else 1):
                sim.cancel(handles[script.randrange(len(handles))])
        elif op == 4:
            horizon = sim.now + script.choice((-1.0, 0.0, 0.5, 2.0))
            attempt("horizon", lambda: sim.run_window(horizon))
        elif op == 5:
            stop = sim.events_processed + script.randint(1, 5)
            attempt("count", lambda: sim.run_until(
                lambda: sim.events_processed >= stop, timeout=math.inf))
        elif op == 6:
            horizon = sim.now + script.choice((0.0, 0.5, 1.0))
            attempt("window", lambda: sim.run_window(
                horizon, poll=lambda: log.append(("poll", sim.now))))
        elif op == 7:
            target = len(log) + script.randint(1, 8)
            timeout = script.choice((0.0, 0.75, 4.0, -1.0))
            attempt("until", lambda: sim.run_until(
                lambda: len(log) >= target, timeout=timeout))
        elif op == 8:
            attempt("next", sim.next_event_time)
        else:
            when = sim.now + script.choice((-0.5, 0.0, 0.25, float("nan")))
            attempt("at", lambda: sim.schedule_at(when, lambda: None) and None)
    attempt("drain", lambda: drain(sim))
    return log


@pytest.mark.parametrize("seed", range(40))
def test_random_programs_match_the_event_object_kernel(seed):
    expected = drive(ReferenceSimulator, seed, steps=60, cancel_storms=False)
    assert drive(Simulator, seed, steps=60, cancel_storms=False) == expected
    assert any(entry[0] == "fire" for entry in expected)


@pytest.mark.parametrize("seed", range(8))
def test_cancel_storms_compact_without_changing_what_runs(seed):
    expected = drive(ReferenceSimulator, seed, steps=120, cancel_storms=True)
    assert drive(Simulator, seed, steps=120, cancel_storms=True) == expected


# ---------------------------------------------------------------------------
# whole runs on either kernel
# ---------------------------------------------------------------------------

@pytest.fixture
def reference_kernel(monkeypatch):
    """Build every deployment (and every shard) on the reference kernel."""
    def use() -> None:
        monkeypatch.setattr(harness, "Simulator", ReferenceSimulator)
        monkeypatch.setattr(sharding, "Simulator", ReferenceSimulator)
    return use


@pytest.mark.parametrize("protocol", ["honeybadger-sc", "dumbo-lc", "beat"])
@pytest.mark.parametrize("batched", [True, False])
def test_one_epoch_runs_are_equal_on_both_kernels(protocol, batched,
                                                  reference_kernel):
    def run():
        return run_consensus(protocol, Scenario.single_hop(4),
                             batched=batched, seed=11)
    result = run()
    reference_kernel()
    assert run() == result
    assert result.sim_events > 0


def test_streaming_runs_are_equal_on_both_kernels(reference_kernel):
    def run():
        return dataclasses.asdict(run_streaming_consensus(
            "honeybadger-sc", Scenario.single_hop(4),
            StreamingSpec(epochs=3, batch_size=2, warmup=8),
            seed=5))
    result = run()
    reference_kernel()
    assert run() == result


def test_sharded_multihop_runs_are_equal_on_both_kernels(reference_kernel):
    def run():
        return dataclasses.asdict(run_multihop_consensus(
            "honeybadger-sc", Scenario.scale_multi_hop(2, 4), seed=3,
            shards=2, shard_workers=1))
    result = run()
    reference_kernel()
    assert run() == result


# ---------------------------------------------------------------------------
# the handle
# ---------------------------------------------------------------------------

class TestHandle:
    def test_the_handle_is_the_heap_entry(self):
        sim = Simulator()

        def callback():
            pass

        handle = sim.schedule(2.0, callback)
        assert handle == [2.0, 0, callback]
        assert sim._queue[0] is handle
        assert sim.schedule_at(1.0, callback) is sim._queue[0]

    def test_a_fired_handle_is_dead_and_a_late_cancel_is_a_no_op(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        drain(sim)
        assert handle[2] is None
        sim.cancel(handle)
        assert sim._cancelled_queued == 0

    def test_a_cancelled_handle_never_runs_and_counts_once(self):
        sim = Simulator()
        ran = []
        handle = sim.schedule(1.0, lambda: ran.append(1))
        sim.cancel(handle)
        sim.cancel(handle)
        assert handle[2] is None and sim._cancelled_queued == 1
        drain(sim)
        assert sim.now == 0.0 and ran == []
        assert sim._cancelled_queued == 0 and sim.pending_events() == 0

    def test_a_periodic_timer_entry_follows_start_and_stop(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.start()
        first = timer._event
        assert first[2] is not None
        sim.run_window(1.0)
        second = timer._event
        assert first[2] is None and second is not first  # fired, re-armed
        assert second[2] is not None
        timer.stop()
        assert second[2] is None and timer._event is None
        assert sim._cancelled_queued == 1

    def test_a_periodic_timer_stopped_by_its_callback_leaves_no_tally(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: timer.stop())
        timer.start()
        drain(sim)
        assert sim.events_processed == 1 and sim._cancelled_queued == 0
