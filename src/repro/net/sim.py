"""Deterministic discrete-event simulation kernel.

Every experiment in this reproduction runs on virtual time.  The kernel is a
binary-heap event queue with a monotonically increasing sequence number used
to break ties, which makes runs fully deterministic for a given seed and
schedule of calls.

An event *is* its heap entry: the three-slot list ``[time, seq, callback]``
that ``schedule`` pushes and returns as the event's handle.  List comparison
is implemented in C and never reaches the callback slot (``seq`` is unique),
so ordering costs what a tuple's would; scheduling builds nothing else -- no
event object and no label, which no run ever read.  A slot of ``None`` marks
an entry dead: :meth:`Simulator.cancel` sets it on a queued entry, and the
run loops set it on the entry they pop, so a late cancel of an event that
already ran is a no-op.  Cancelled entries are skipped when popped; when too
many accumulate (heavy retransmission-timer churn) the queue is compacted in
place so memory and pop costs stay proportional to the live event count.

The kernel deliberately stays tiny: processes are modelled as callbacks, the
two run loops are :meth:`Simulator.run_until` (until a predicate holds) and
:meth:`Simulator.run_window` (up to a horizon), and the one timer is
:class:`PeriodicTimer`.  Components and protocols never block; they react to
delivered events, which matches the asynchronous message-passing model of
the paper.
"""

from __future__ import annotations

import itertools
import random
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

# Compact the heap once at least this many cancelled events are queued AND
# they outnumber the live ones (amortised O(1) per cancellation).
_COMPACT_MIN_CANCELLED = 64

#: an event handle: the heap entry ``[time, seq, callback or None]``
Event = list


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an invalid state."""


def _describe(callback: Any) -> str:
    """A short name for ``callback`` in an error message (a partial is named
    by the function it wraps, not by its possibly large arguments)."""
    target = getattr(callback, "func", callback)
    return getattr(target, "__qualname__", None) or type(target).__name__


class Simulator:
    """A discrete-event simulator with virtual time and a deterministic RNG.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All stochastic
        choices in the network substrate (backoff slots, jitter, adversarial
        delays) draw from this RNG so that a run is reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue: list[Event] = []
        self._seq = itertools.count()
        #: current virtual time in seconds.  A plain attribute, not a
        #: property: every layer reads it several times per event, and only
        #: the run loops below write it.
        self.now = 0.0
        self.rng = random.Random(seed)
        self.seed = seed
        self._events_processed = 0
        #: cancelled entries still in the heap (compaction pays off when
        #: they outnumber the live ones)
        self._cancelled_queued = 0
        #: bumped by every event that can change a stream poll's answer (a
        #: decision, a locked common subset, a crash): a run-loop predicate
        #: that reads only such state may skip its body while it is unchanged
        self.milestones = 0

    # ------------------------------------------------------------------ time
    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be a non-negative, non-NaN number: a NaN compares
        false against everything, so it used to slip past a ``< 0`` guard
        and silently poison the heap invariant (every pop after it is
        arbitrary, so the run is no longer a function of the seed).
        """
        if not delay >= 0:  # negative, or NaN
            raise SimulationError(
                f"cannot schedule {_describe(callback)} "
                + ("after a NaN delay" if delay != delay
                   else f"in the past (delay={delay})"))
        entry = [self.now + delay, next(self._seq), callback]
        heappush(self._queue, entry)
        return entry

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if not when >= self.now:  # in the past, or NaN
            raise SimulationError(
                f"cannot schedule {_describe(callback)} "
                + ("at a NaN time" if when != when
                   else f"at {when} before current time {self.now}"))
        entry = [when, next(self._seq), callback]
        heappush(self._queue, entry)
        return entry

    def cancel(self, event: Event) -> None:
        """Prevent a scheduled callback from running.

        Cancelling an event twice, or one that already ran, does nothing.
        """
        if event[2] is None:
            return
        event[2] = None
        cancelled = self._cancelled_queued = self._cancelled_queued + 1
        if (cancelled >= _COMPACT_MIN_CANCELLED
                and cancelled * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (heap order is preserved
        by rebuilding; (time, seq) keys make the result deterministic).

        Mutates the list in place: the run loops hold a local reference to it.
        """
        self._queue[:] = [entry for entry in self._queue
                          if entry[2] is not None]
        heapify(self._queue)
        self._cancelled_queued = 0

    # ------------------------------------------------------------------- run
    def _check_horizon(self, until: float) -> None:
        """The clock only moves forward: reject a NaN or past horizon.

        A past horizon used to rewind ``now`` below timestamps already
        executed; a NaN one compares false against every event time, so the
        run loops would never stop at it.
        """
        if not until >= self.now:  # also true for NaN
            raise SimulationError(
                f"cannot run until {until}: the clock is already at {self.now}")

    # The two run loops share one body per event: pop the entry, skip it
    # if cancelled, else mark it dead (a cancel after the pop -- a periodic
    # timer stopped from inside its own callback -- must neither run it nor
    # count it as queued), advance the clock and call it.

    def run_window(self, until: float,
                   poll: Optional[Callable[[], None]] = None) -> int:
        """Run every event with ``time <= until``, then land exactly on ``until``.

        The conservative-synchronization primitive: a shard executes one
        barrier window ``(now, until]`` with this call.  Events scheduled at
        exactly ``until`` execute (cross-shard transmissions land precisely on
        the horizon, so the boundary must be inclusive), an empty window
        fast-forwards the clock to ``until`` without touching the heap, and
        ``poll`` -- when given -- runs after every processed event (the
        multi-hop harness uses it to couple local decisions into the global
        domain at the same per-event cadence as :meth:`run_until`).

        Returns the number of events processed in the window.
        """
        self._check_horizon(until)
        processed = 0
        queue = self._queue
        while queue:
            entry = queue[0]
            when = entry[0]
            if when > until:
                break
            heappop(queue)
            callback = entry[2]
            if callback is None:
                self._cancelled_queued -= 1
                continue
            entry[2] = None
            self.now = when
            callback()
            self._events_processed += 1
            processed += 1
            if poll is not None:
                poll()
        if until > self.now:
            self.now = until
        return processed

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Run until ``predicate()`` is true or ``timeout`` virtual seconds pass.

        The predicate is evaluated after every processed event.  Returns True
        if the predicate became true, False on timeout or queue exhaustion.
        (A ``check_interval`` parameter used to exist but was silently
        ignored; it has been removed rather than given surprise semantics.)
        ``timeout`` must be a non-negative number: a negative one would put
        the deadline (where a timed-out run leaves the clock) in the past,
        and a NaN one never expires -- with periodic timers re-arming, such
        a run never returns.
        """
        if not timeout >= 0:  # also true for NaN
            raise SimulationError(
                f"run_until timeout must be a non-negative number of "
                f"seconds, got {timeout}")
        deadline = self.now + timeout
        if predicate():
            return True
        queue = self._queue
        while queue:
            entry = queue[0]
            when = entry[0]
            if when > deadline:
                self.now = deadline
                return predicate()
            heappop(queue)
            callback = entry[2]
            if callback is None:
                self._cancelled_queued -= 1
                continue
            entry[2] = None
            self.now = when
            callback()
            self._events_processed += 1
            if predicate():
                return True
        return predicate()

    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def close(self) -> None:
        """Drop every queued event (end of run).

        A queued callback is usually a bound method or closure of the
        deployment that owns this simulator, so a finished run's heap keeps
        the whole deployment in a reference cycle.  The clock, the seed and
        :attr:`events_processed` stay readable.
        """
        self._queue.clear()
        self._cancelled_queued = 0

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest live (non-cancelled) queued event, or None.

        Cancelled entries found at the top are dropped on the way (they would
        be skipped by the run loops anyway), so the answer is exact.  The
        sharded engine uses this as a lookahead ingredient: no fresh work --
        in particular no fresh backbone channel access -- can originate
        before this instant.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[2] is None:
                heappop(queue)
                self._cancelled_queued -= 1
                continue
            return entry[0]
        return None


class PeriodicTimer:
    """A timer that re-fires every ``interval`` seconds until stopped.

    The transports' resend timer: asynchronous BFT consensus in wireless
    networks relies on retransmissions to make progress (Section IV-A of the
    paper).  Optional jitter (a fraction of the interval drawn uniformly) desynchronises
    periodic retransmissions across nodes, which matters on a shared channel.
    """

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], None], jitter: float = 0.0) -> None:
        if interval <= 0:
            raise SimulationError("periodic timer interval must be positive")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._jitter = jitter
        self._event: Optional[Event] = None
        self._stopped = True

    def start(self) -> None:
        """Start (or restart) the periodic firing.

        Restarting a running timer re-arms it ``interval`` from now: the
        queued firing is cancelled first, so one timer never runs two firing
        chains.
        """
        self.stop()
        self._stopped = False
        self._schedule_next()

    def stop(self) -> None:
        """Stop firing."""
        self._stopped = True
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _schedule_next(self) -> None:
        delay = self.interval
        if self._jitter > 0:
            delay += self._sim.rng.uniform(0, self._jitter * self.interval)
        self._event = self._sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._event = None
        self._callback()
        # the callback may have stopped the timer, or restarted it (which
        # armed the next firing already)
        if not self._stopped and self._event is None:
            self._schedule_next()
