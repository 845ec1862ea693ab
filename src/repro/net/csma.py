"""CSMA/CA medium access control.

TDMA is unusable in an asynchronous network (Section IV-A), so every node
competes for the shared channel with carrier sensing plus a random backoff:
before transmitting, a node waits for the channel to be idle for a DIFS
period plus a random number of backoff slots.  Collisions still happen when
two nodes pick overlapping start times; the MAC does *not* retransmit --
recovery is the job of the protocol-level NACK/retransmission mechanism,
exactly as in the paper's design.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from repro.net.channel import Frame, WirelessChannel
from repro.net.sim import Simulator
from repro.net.trace import NetworkTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import NetworkNode


@dataclass(frozen=True)
class CsmaConfig:
    """CSMA/CA parameters."""

    slot_s: float = 0.005
    difs_s: float = 0.010
    cw_min: int = 8
    cw_max: int = 64
    #: maximum number of frames queued before the oldest is dropped
    queue_limit: int = 256


class CsmaMac:
    """Per-node CSMA/CA transmitter bound to one :class:`WirelessChannel`."""

    def __init__(self, sim: Simulator, node_id: int, channel: WirelessChannel,
                 config: CsmaConfig, trace: NetworkTrace, rng) -> None:
        self.sim = sim
        self.node_id = node_id
        self.channel = channel
        self.config = config
        self.trace = trace
        self.rng = rng
        self.node: Optional["NetworkNode"] = None
        self._queue: deque[Frame] = deque()
        self._state = "idle"  # idle | backoff | transmitting
        self._contention_window = config.cw_min
        self._tx_start = 0.0
        self._tx_end = 0.0
        self._backoff_started = 0.0
        channel.attach(self)

    # ----------------------------------------------------------------- status
    def was_transmitting_during(self, start: float, end: float) -> bool:
        """True if this node's transmitter was active during [start, end]."""
        if self._tx_end <= self._tx_start:
            return False
        return not (end <= self._tx_start or start >= self._tx_end)

    # ------------------------------------------------------------------- send
    def enqueue(self, frame: Frame) -> None:
        """Queue a frame for transmission."""
        if len(self._queue) >= self.config.queue_limit:
            self._queue.popleft()
        self._queue.append(frame)
        if self._state == "idle":
            self._start_backoff()

    def _start_backoff(self) -> None:
        if not self._queue:
            self._state = "idle"
            return
        self._state = "backoff"
        self._backoff_started = self.sim.now
        slots = self.rng.randrange(self._contention_window)
        wait = max(0.0, self.channel.busy_until - self.sim.now)
        delay = wait + self.config.difs_s + slots * self.config.slot_s
        self.sim.schedule(delay, self._attempt)

    def _attempt(self) -> None:
        if self._state != "backoff" or not self._queue:
            return
        if self.channel.is_busy():
            # Channel got grabbed while we were counting down; widen the
            # contention window and retry (binary exponential backoff).
            self._contention_window = min(self._contention_window * 2,
                                          self.config.cw_max)
            self._start_backoff()
            return
        self.trace.record_backoff(self.node_id, self.sim.now - self._backoff_started)
        frame = self._queue[0]
        if frame.builder is not None:
            built = frame.builder()
            frame.builder = None
            if built is None:
                # Nothing left to send for this frame (content was merged
                # elsewhere or the instances were retired); drop it.
                self._queue.popleft()
                self._state = "idle"
                if self._queue:
                    self._start_backoff()
                return
            frame.payload, frame.size_bytes = built
        self._state = "transmitting"
        self._tx_start = self.sim.now
        self._tx_end = self.sim.now + self.channel.radio.airtime(frame.size_bytes)
        self.channel.transmit(self, frame)

    def on_transmit_done(self, frame: Frame, collided: bool) -> None:
        """Channel callback when our transmission left the air."""
        if self._queue and self._queue[0] is frame:
            self._queue.popleft()
        if collided:
            self._contention_window = min(self._contention_window * 2,
                                          self.config.cw_max)
        else:
            self._contention_window = self.config.cw_min
        self._state = "idle"
        if self._queue:
            self._start_backoff()

    def close(self) -> None:
        """Drop the owning node and the queued frames (end of run)."""
        self.node = None
        self._queue.clear()
