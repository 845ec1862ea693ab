"""The node runtime: CPU accounting, DMA-modelled receive path, interfaces.

A wireless consensus node is a battery-powered, single-core device: crypto
operations and packet handling occupy the CPU, and the paper stresses that
these computation delays interact with the DMA receive buffer and the
protocol timers to produce congestion.  :class:`NetworkNode` models that
pipeline:

``channel -> (rx turnaround) -> DMA buffer -> CPU (busy-time) -> protocol stack``

and, on the transmit side,

``protocol stack -> (CPU finishes computing) -> CSMA MAC queue -> channel``.

The protocol stack bound to the node only needs to expose
``handle_frame(sender_id, payload)``; everything it sends goes through
:meth:`NetworkNode.broadcast`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

from repro.core.dma import DmaBuffer, DmaConfig
from repro.net.channel import Frame
from repro.net.csma import CsmaMac
from repro.net.sim import Simulator
from repro.net.trace import NetworkTrace


@dataclass(frozen=True)
class CpuConfig:
    """CPU cost parameters for packet handling (crypto costs come from the
    :class:`repro.crypto.timing.CryptoSuite` cost model)."""

    frame_processing_s: float = 0.003
    task_processing_s: float = 0.001


class NetworkNode:
    """A consensus node attached to one or more wireless channels."""

    def __init__(self, sim: Simulator, node_id: int, trace: NetworkTrace,
                 cpu: CpuConfig = CpuConfig(),
                 dma_config: Optional[DmaConfig] = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.trace = trace
        self.cpu = cpu
        self.dma = DmaBuffer(config=dma_config or DmaConfig())
        self.interfaces: dict[str, CsmaMac] = {}
        self.default_interface = "radio0"
        self.stack: Optional[Any] = None
        self._channel_stacks: dict[str, Any] = {}
        self.cpu_available_at = 0.0
        self._in_task = False
        self._task_charge = 0.0
        self._outbox: list[tuple] = []
        #: frames that arrived while the CPU was busy, in arrival order
        self._rx_pending: deque[Frame] = deque()
        self._rx_drain_scheduled = False
        #: set True to silence the node entirely (crash-fault behaviour)
        self.crashed = False

    # -------------------------------------------------------------- wiring
    def add_interface(self, name: str, mac: CsmaMac) -> None:
        """Attach a MAC (and its channel) under interface ``name``.

        A MAC belongs to one node for life: the channel binds
        ``mac.node.deliver_frame`` when it schedules a delivery, not when the
        delivery fires, so re-homing a MAC would strand frames in flight.
        """
        if mac.node is not None and mac.node is not self:
            raise ValueError(
                f"MAC of node {mac.node_id} is already attached to node "
                f"{mac.node.node_id}; a MAC cannot move between nodes")
        mac.node = self
        self.interfaces[name] = mac
        if len(self.interfaces) == 1:
            self.default_interface = name

    def bind_stack(self, stack: Any, channel: Optional[str] = None) -> None:
        """Bind a protocol stack (must expose ``handle_frame``).

        With ``channel=None`` the stack becomes the default for every
        interface; otherwise it only receives frames arriving on the named
        channel.  Multi-hop cluster leaders use this to run a local-consensus
        stack on their cluster channel and a global-consensus stack on the
        backbone channel simultaneously.
        """
        if channel is None:
            self.stack = stack
        else:
            self._channel_stacks[channel] = stack

    # ----------------------------------------------------------- CPU model
    def charge_cpu(self, seconds: float) -> None:
        """Charge CPU time to this node (crypto cost sink).

        Inside a frame/task handler the charge accumulates and is applied when
        the handler finishes; outside a handler it extends the CPU-busy time
        immediately.
        """
        if seconds <= 0:
            return
        if self._in_task:
            self._task_charge += seconds
        else:
            start = max(self.sim.now, self.cpu_available_at)
            self.cpu_available_at = start + seconds
            self.trace.record_cpu(self.node_id, seconds)

    def _run_accounted(self, fn: Callable[..., None], base_cost: float,
                       *args: Any) -> None:
        """Run ``fn(*args)`` under CPU accounting and flush its outgoing frames."""
        self._in_task = True
        self._task_charge = 0.0
        self._outbox = []
        try:
            fn(*args)
        finally:
            total = self._task_charge + base_cost
            start = max(self.sim.now, self.cpu_available_at)
            self.cpu_available_at = start + total
            self.trace.record_cpu(self.node_id, total)
            outbox = self._outbox
            self._in_task = False
        send_at = self.cpu_available_at
        for queued in outbox:
            self.sim.schedule_at(send_at, partial(self._enqueue_frame, *queued))

    # ------------------------------------------------------------ receive path
    def deliver_frame(self, frame: Frame) -> None:
        """Called by the channel when a frame arrives at this node's radio."""
        if self.crashed:
            return
        interrupt_at = self.dma.on_frame(self.sim.now, frame.size_bytes)
        start_at = max(interrupt_at, self.cpu_available_at)
        self.sim.schedule_at(start_at, partial(self._process_frame, frame))

    def _process_frame(self, frame: Frame) -> None:
        if self.crashed:
            return
        if self.sim.now < self.cpu_available_at or self._rx_pending:
            # The CPU got busier since this frame was scheduled (another frame
            # or task is still being processed); a single-core node handles
            # one thing at a time.  Backlogged frames wait in a FIFO queue
            # with a single wake-up event -- rescheduling every waiting frame
            # on every CPU wake-up (the previous behaviour) is quadratic in
            # the backlog depth and dominated large-n runs on fast radios.
            # Processing order and times are unchanged: the queue preserves
            # the arrival order the per-frame reschedules replayed.
            self._rx_pending.append(frame)
            self._schedule_rx_drain()
            return
        self._handle_frame_now(frame)

    def _handle_frame_now(self, frame: Frame) -> None:
        # the stack bound to the frame's channel, else the node's own stack
        stack = self._channel_stacks.get(frame.channel, self.stack)
        if stack is None:
            return
        self.trace.record_frame_received(self.node_id)
        self._run_accounted(stack.handle_frame, self.cpu.frame_processing_s,
                            frame.sender, frame.payload)

    def _schedule_rx_drain(self) -> None:
        if self._rx_drain_scheduled:
            return
        self._rx_drain_scheduled = True
        self.sim.schedule_at(self.cpu_available_at, self._drain_rx_pending)

    def _drain_rx_pending(self) -> None:
        self._rx_drain_scheduled = False
        if self.crashed:
            self._rx_pending.clear()
            return
        if not self._rx_pending:
            return
        if self.sim.now < self.cpu_available_at:
            # A task slipped in and occupied the CPU again; try later.
            self._schedule_rx_drain()
            return
        self._handle_frame_now(self._rx_pending.popleft())
        if self._rx_pending:
            self._schedule_rx_drain()

    # ------------------------------------------------------------- send path
    def broadcast(self, payload: Any, size_bytes: int,
                  interface: Optional[str] = None) -> None:
        """Broadcast ``payload`` on ``interface`` (queued behind the CPU)."""
        self._queue_send(payload, size_bytes, interface, builder=None)

    def broadcast_deferred(self, builder: Callable[[], Optional[tuple[Any, int]]],
                           interface: Optional[str] = None) -> None:
        """Queue a frame whose content is built at channel-access time.

        The ConsensusBatcher transport uses this so that every update that
        accumulates while the node waits for the channel rides in the same
        packet (one channel access for many component messages).
        """
        self._queue_send(None, 1, interface, builder=builder)

    def _queue_send(self, payload: Any, size_bytes: int,
                    interface: Optional[str],
                    builder: Optional[Callable[[], Optional[tuple[Any, int]]]]) -> None:
        if self.crashed:
            return
        interface = interface or self.default_interface
        if self._in_task:
            self._outbox.append((payload, size_bytes, interface, builder))
        else:
            send_at = max(self.sim.now, self.cpu_available_at)
            self.sim.schedule_at(send_at,
                                 partial(self._enqueue_frame, payload,
                                         size_bytes, interface, builder))

    def _enqueue_frame(self, payload: Any, size_bytes: int, interface: str,
                       builder: Optional[Callable[[], Optional[tuple[Any, int]]]] = None
                       ) -> None:
        if self.crashed:
            return
        mac = self.interfaces.get(interface)
        if mac is None:
            raise KeyError(f"node {self.node_id} has no interface {interface!r}; "
                           f"known: {sorted(self.interfaces)}")
        mac.enqueue(Frame(sender=self.node_id, payload=payload,
                          size_bytes=size_bytes, builder=builder))

    # ----------------------------------------------------------------- tasks
    def run_task(self, fn: Callable[[], None]) -> None:
        """Run protocol-initiated work (timer fire, protocol start) with CPU
        accounting, at the earliest time the CPU is free."""
        if self.crashed:
            return
        start_at = max(self.sim.now, self.cpu_available_at)
        self.sim.schedule_at(start_at, partial(
            self._run_accounted, fn, self.cpu.task_processing_s))

    def crash(self) -> None:
        """Silence the node permanently (crash fault)."""
        self.crashed = True
        self.sim.milestones += 1

    def close(self) -> None:
        """Unbind the stacks and close the interfaces (end of run).

        The bound stacks and the MACs point back at this node, and frames
        queued at a MAC carry builders of a stack: dropping them all breaks
        the cycles a finished deployment would otherwise leave to the
        cyclic collector.
        """
        self.stack = None
        self._channel_stacks.clear()
        for mac in self.interfaces.values():
            mac.close()
        self.interfaces.clear()
        self._rx_pending.clear()
        self._outbox = []
