"""Tests for the DMA buffer / packet-alignment model (Section IV-B.2)."""

import pytest

from repro.net.dma import DmaBuffer, DmaConfig


class TestDmaConfig:
    def test_half_threshold_is_max_packet(self):
        config = DmaConfig(max_packet_bytes=256)
        assert config.half_threshold_bytes == 256


class TestAlignedDma:
    def test_every_frame_interrupts_immediately(self):
        buffer = DmaBuffer(DmaConfig(alignment_enabled=True,
                                     interrupt_latency_s=0.001))
        t1 = buffer.on_frame(10.0, 30)
        t2 = buffer.on_frame(11.0, 500)
        assert t1 == pytest.approx(10.001)
        assert t2 == pytest.approx(11.001)
        assert buffer.interrupts == 2
        assert buffer.delayed_frames == 0


class TestUnalignedDma:
    def test_small_frames_wait_for_flush(self):
        buffer = DmaBuffer(DmaConfig(alignment_enabled=False,
                                     max_packet_bytes=256,
                                     interrupt_latency_s=0.001,
                                     idle_flush_s=0.05))
        t = buffer.on_frame(5.0, 40)
        assert t == pytest.approx(5.05)
        assert buffer.delayed_frames == 1

    def test_large_frames_interrupt_promptly(self):
        buffer = DmaBuffer(DmaConfig(alignment_enabled=False,
                                     max_packet_bytes=256,
                                     interrupt_latency_s=0.001,
                                     idle_flush_s=0.05))
        t = buffer.on_frame(5.0, 300)
        assert t == pytest.approx(5.001)

    def test_alignment_reduces_latency(self):
        aligned = DmaBuffer(DmaConfig(alignment_enabled=True))
        unaligned = DmaBuffer(DmaConfig(alignment_enabled=False))
        assert aligned.on_frame(0.0, 50) < unaligned.on_frame(0.0, 50)

    def test_negative_size_rejected(self):
        buffer = DmaBuffer()
        with pytest.raises(ValueError):
            buffer.on_frame(0.0, -1)

    def test_every_frame_leaves_the_buffer_empty(self):
        # each arrival ends in an interrupt (threshold or idle flush), so no
        # bytes carry over from one frame, or one run, to the next
        buffer = DmaBuffer(DmaConfig(alignment_enabled=False,
                                     max_packet_bytes=256))
        buffer.on_frame(0.0, 10)
        assert (buffer.pending_bytes, buffer.frames_buffered) == (0, 0)
        buffer.on_frame(1.0, 300)
        assert (buffer.pending_bytes, buffer.frames_buffered) == (0, 0)
        assert buffer.interrupts == 2 and buffer.delayed_frames == 1
