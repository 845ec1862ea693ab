"""Tests for the asynchronous adversary and traces."""

import random

import pytest

from repro.net.adversary import AsyncAdversary, DelayModel
from repro.net.trace import NetworkTrace


class TestDelayModel:
    def test_delay_bounded_and_nonnegative(self):
        model = DelayModel(base_jitter_s=0.01, max_delay_s=5.0)
        rng = random.Random(0)
        for _ in range(100):
            delay = model.delay(0, 1, rng)
            assert 0.0 <= delay <= 5.0

    def test_targeted_delay_applied(self):
        model = DelayModel(base_jitter_s=0.0, targeted={(0, 1): 2.0})
        rng = random.Random(0)
        assert model.delay(0, 1, rng) == pytest.approx(2.0)
        assert model.delay(1, 0, rng) == pytest.approx(0.0)

    def test_max_delay_caps_targeted(self):
        model = DelayModel(base_jitter_s=0.0, targeted={(0, 1): 100.0},
                           max_delay_s=10.0)
        assert model.delay(0, 1, random.Random(0)) == pytest.approx(10.0)


class TestAsyncAdversary:
    def test_target_link(self):
        adversary = AsyncAdversary(delay_model=DelayModel(base_jitter_s=0.0))
        adversary.target_link(1, 2, 4.0)
        assert adversary.delay_model.delay(1, 2, random.Random(0)) == \
            pytest.approx(4.0)


class TestNetworkTrace:
    def test_aggregates(self):
        trace = NetworkTrace()
        trace.record_transmission("ch0", 100, 0.3)
        trace.record_channel_access(0, fragments=1, size_bytes=100)
        trace.record_channel_access(1, fragments=2, size_bytes=300)
        trace.record_collision("ch0")
        trace.record_logical_send(0, 3)
        trace.record_cpu(0, 0.5)
        assert trace.total_channel_accesses == 3
        assert trace.total_bytes_sent == 400
        assert trace.total_collisions == 1
        assert trace.channel_accesses_per_node() == {0: 1, 1: 2}
        assert trace.nodes[0].logical_messages_sent == 3
        assert trace.total_frames_sent == 2
        assert trace.channels["ch0"].busy_time == pytest.approx(0.3)

    def test_collisions_are_counted_per_channel(self):
        trace = NetworkTrace()
        trace.record_transmission("ch0", 10, 0.1)
        trace.record_transmission("ch0", 10, 0.1)
        trace.record_transmission("ch1", 10, 0.1)
        trace.record_collision("ch0")
        assert trace.channels["ch0"].transmissions == 2
        assert trace.channels["ch0"].collisions == 1
        assert trace.channels["ch1"].collisions == 0
        assert trace.total_collisions == 1
