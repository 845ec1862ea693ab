"""DMA buffer model with the packet-alignment optimisation (Section IV-B.2).

On the paper's single-core STM32 boards, received frames land in a DMA buffer
and are only handed to the CPU when a half- or full-buffer interrupt fires.
Without care, short packets accumulate in the buffer and their processing is
delayed, which stretches consensus timers and indirectly congests the network.

The paper's DMA module sizes the buffer at twice the maximum protocol packet
length (``2D``) and pads/aligns packets so that every arrival lands in
``[D, 2D]`` and immediately triggers a half- or full-buffer interrupt.  This
module reproduces that mechanism as a queueing model:

* with ``alignment_enabled`` every frame triggers an interrupt after a small
  fixed latency (the optimised behaviour);
* without alignment, frames shorter than the half-buffer threshold wait until
  either enough bytes accumulate or an idle flush timeout expires, modelling
  the accumulation delay the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DmaConfig:
    """Parameters of the DMA receive path."""

    #: maximum protocol packet length D; the buffer is 2*D bytes
    max_packet_bytes: int = 256
    #: whether the paper's alignment optimisation is enabled
    alignment_enabled: bool = True
    #: latency from "frame fully received" to "CPU interrupt" when aligned
    interrupt_latency_s: float = 0.0005
    #: how long an unaligned short frame may sit in the buffer before a
    #: timeout flush hands it to the CPU
    idle_flush_s: float = 0.050

    @property
    def half_threshold_bytes(self) -> int:
        """The half-buffer interrupt threshold (D)."""
        return self.max_packet_bytes


@dataclass
class DmaBuffer:
    """Stateful model of one node's DMA receive buffer."""

    config: DmaConfig = field(default_factory=DmaConfig)
    pending_bytes: int = 0
    frames_buffered: int = 0
    interrupts: int = 0
    delayed_frames: int = 0

    def on_frame(self, now: float, size_bytes: int) -> float:
        """Register an arriving frame; return the time its CPU interrupt fires."""
        if size_bytes < 0:
            raise ValueError(f"frame size must be non-negative, got {size_bytes}")
        if self.config.alignment_enabled:
            # Alignment pads every packet to at least D bytes, so each arrival
            # crosses the half (or full) threshold and interrupts immediately.
            self.interrupts += 1
            return now + self.config.interrupt_latency_s
        self.pending_bytes += size_bytes
        self.frames_buffered += 1
        if self.pending_bytes >= self.config.half_threshold_bytes:
            self.pending_bytes = 0
            self.frames_buffered = 0
            self.interrupts += 1
            return now + self.config.interrupt_latency_s
        # The frame waits for more data; model the wait as the idle flush
        # timeout (the worst case the paper is designing against).
        self.delayed_frames += 1
        self.pending_bytes = 0
        self.frames_buffered = 0
        self.interrupts += 1
        return now + self.config.idle_flush_s
