"""The shared wireless broadcast channel.

Nodes in a (single-hop) wireless network share one channel: a frame put on
the air by one node is received by every other node in range, *unless* it
overlaps with another transmission (collision) or the receiver was itself
transmitting (half-duplex).  This is the property ConsensusBatcher exploits
(one transmission serves all N receivers) and the property that makes N
parallel consensus components expensive (N times the channel contention).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional, TYPE_CHECKING  # noqa: F401

from repro.net.radio import RadioConfig
from repro.net.sim import Simulator
from repro.net.trace import NetworkTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.adversary import AsyncAdversary


@dataclass
class Frame:
    """A physical-layer frame: an opaque payload with a declared size.

    When ``builder`` is set, the payload and size are *materialised at
    channel-access time*: the MAC calls the builder right before transmitting
    so the frame carries the freshest batched content (this is how
    ConsensusBatcher merges the updates that accumulated while the node was
    waiting for the channel).  A builder returning ``None`` cancels the frame.
    """

    sender: int
    payload: Any
    size_bytes: int
    channel: str = ""
    frame_id: int = 0
    builder: Optional[Callable[[], Optional[tuple[Any, int]]]] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"frame size must be positive, got {self.size_bytes}")


@dataclass
class Transmission:
    """An in-flight frame occupying the channel from ``start`` to ``end``."""

    frame: Frame
    sender_mac: Any
    start: float
    end: float
    collided: bool = False
    extra_hop_delay: float = 0.0
    seq: int = field(default=0)


class WirelessChannel:
    """A single shared broadcast channel with collisions and half-duplex loss.

    Parameters
    ----------
    sim:
        The discrete-event simulator.
    radio:
        PHY parameters (bitrate, preamble, fragmentation).
    trace:
        Statistics collector.
    name:
        Channel name (multi-hop scenarios run one channel per cluster plus a
        global channel).
    adversary:
        Optional asynchronous adversary adding per-link delivery delays and
        reordering (the asynchronous network model of Section III-A).
    per_hop_forward_s:
        Extra delivery delay per routed hop beyond the first; used by the
        multi-hop backbone channel where frames are forwarded by relays.
    """

    def __init__(self, sim: Simulator, radio: RadioConfig, trace: NetworkTrace,
                 name: str = "ch0",
                 adversary: Optional["AsyncAdversary"] = None,
                 per_hop_forward_s: float = 0.0) -> None:
        self.sim = sim
        self.radio = radio
        self.trace = trace
        self.name = name
        self.adversary = adversary
        self.per_hop_forward_s = per_hop_forward_s
        self._macs: list[Any] = []
        self._active: list[Transmission] = []
        self._busy_until = 0.0
        self._frame_seq = itertools.count(1)
        #: optional per-pair hop counts set by the routing layer
        self.hop_counts: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------- membership
    def attach(self, mac: Any) -> None:
        """Attach a node's MAC to this channel."""
        self._macs.append(mac)

    def close(self) -> None:
        """Detach every MAC and drop the frames on the air (end of run)."""
        self._macs.clear()
        self._active.clear()

    # ------------------------------------------------------------ carrier sense
    @property
    def busy_until(self) -> float:
        """Virtual time until which the channel is sensed busy."""
        return self._busy_until

    def is_busy(self) -> bool:
        """True if a transmission is currently on the air."""
        return self.sim.now < self._busy_until

    # --------------------------------------------------------------- transmit
    def transmit(self, sender_mac: Any, frame: Frame) -> Transmission:
        """Put ``frame`` on the air starting now; returns the transmission."""
        airtime = self.radio.airtime(frame.size_bytes)
        start = self.sim.now
        end = start + airtime
        frame.channel = self.name
        frame.frame_id = next(self._frame_seq)
        transmission = Transmission(frame=frame, sender_mac=sender_mac,
                                    start=start, end=end, seq=frame.frame_id)
        # Any overlap with an in-flight transmission destroys both: the
        # conservative no-capture collision model.
        for other in self._active:
            if other.end > start:
                other.collided = True
                transmission.collided = True
        self._active.append(transmission)
        self._busy_until = max(self._busy_until, end)
        self.trace.record_transmission(self.name, frame.size_bytes, airtime)
        fragments = self.radio.fragments(frame.size_bytes)
        self.trace.record_channel_access(frame.sender, fragments, frame.size_bytes)
        self.sim.schedule(airtime, partial(self._finish, transmission))
        return transmission

    # ----------------------------------------------------------------- finish
    def _finish(self, transmission: Transmission) -> None:
        self._active.remove(transmission)
        frame = transmission.frame
        sender_mac = transmission.sender_mac
        if transmission.collided:
            self.trace.record_collision(self.name)
            sender_mac.on_transmit_done(frame, collided=True)
            return
        self._deliver(transmission)
        sender_mac.on_transmit_done(frame, collided=False)

    def _deliver(self, transmission: Transmission) -> None:
        """Deliver an uncollided transmission to every attached receiver.

        Split out of :meth:`_finish` so the sharded backbone mirror
        (:mod:`repro.net.shard`) can deliver remote *ghost* transmissions --
        which have no locally attached sender -- through exactly the same
        half-duplex / hop-delay / adversary pipeline.
        """
        frame = transmission.frame
        sender_mac = transmission.sender_mac
        # Fixed per transmission, not per receiver: one transmission fans out
        # into N - 1 deliveries, so nothing below the loop header may re-derive
        # a value the transmission already determines.
        sender = frame.sender
        start, end = transmission.start, transmission.end
        name, trace, sim = self.name, self.trace, self.sim
        schedule, now, rng = sim.schedule, sim.now, sim.rng
        base_delay = self.radio.rx_turnaround_s
        per_hop = self.per_hop_forward_s
        hop_counts = self.hop_counts
        adversary = self.adversary
        delivered = 0
        for mac in self._macs:
            if mac is sender_mac:
                continue
            # Half-duplex: a node that transmitted at any point during this
            # frame's airtime cannot have received it.
            if mac.was_transmitting_during(start, end):
                trace.record_half_duplex_miss(name)
                continue
            delay = base_delay
            if per_hop > 0.0:
                hops = hop_counts.get((sender, mac.node_id), 1)
                delay += max(0, hops - 1) * per_hop
            # mac.node is bound here, at schedule time (add_interface assigns
            # it exactly once, before any frame can fly).
            deliver = partial(mac.node.deliver_frame, frame)
            if adversary is None:
                delivered += 1
                schedule(delay, deliver)
                continue
            # The adversary decides the fate of this link's copy: one delay
            # (normal), several (duplication) or none (drop -- a partition
            # or lossy link the reliability layer must mend).
            extras = adversary.plan_delivery(sender, mac.node_id, now, rng)
            if not extras:
                trace.record_adversary_drop(name)
                continue
            for extra in extras:
                delivered += 1
                schedule(delay + extra, deliver)
        if delivered:
            trace.record_delivery(name, delivered)
