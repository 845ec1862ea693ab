"""Tests for the node runtime: CPU accounting, DMA path, crash behaviour."""

import pytest

from repro.net.channel import Frame, WirelessChannel
from repro.net.csma import CsmaConfig, CsmaMac
from repro.net.dma import DmaConfig
from repro.net.node import CpuConfig, NetworkNode
from repro.net.radio import LORA_SF7_125KHZ
from repro.net.sim import Simulator
from repro.net.trace import NetworkTrace


class BusyStack:
    """A stack whose handler charges CPU and records processing times."""

    def __init__(self, node, cost=0.0):
        self.node = node
        self.cost = cost
        self.processed = []

    def handle_frame(self, sender, payload):
        self.processed.append((self.node.sim.now, sender, payload))
        if self.cost:
            self.node.charge_cpu(self.cost)


def build_node(node_id=0, seed=0, cpu=CpuConfig(), dma=None):
    sim = Simulator(seed=seed)
    trace = NetworkTrace()
    channel = WirelessChannel(sim, LORA_SF7_125KHZ, trace, name="ch0")
    node = NetworkNode(sim, node_id, trace, cpu=cpu, dma_config=dma)
    mac = CsmaMac(sim, node_id, channel, CsmaConfig(), trace, sim.rng)
    node.add_interface("radio0", mac)
    return sim, trace, channel, node


class TestCpuAccounting:
    def test_handler_crypto_cost_extends_cpu_busy_time(self):
        sim, trace, channel, node = build_node()
        stack = BusyStack(node, cost=0.5)
        node.bind_stack(stack)
        node.deliver_frame(Frame(sender=1, payload="a", size_bytes=50))
        node.deliver_frame(Frame(sender=2, payload="b", size_bytes=50))
        sim.run_window(10.0)
        # the second frame's processing must wait for the first frame's cost
        assert len(stack.processed) == 2
        first_time = stack.processed[0][0]
        second_time = stack.processed[1][0]
        assert second_time >= first_time + 0.5
        assert trace.nodes[0].cpu_busy_seconds >= 1.0

    def test_charge_cpu_outside_handler(self):
        sim, trace, channel, node = build_node()
        node.charge_cpu(2.0)
        assert node.cpu_available_at == pytest.approx(2.0)
        node.charge_cpu(1.0)
        assert node.cpu_available_at == pytest.approx(3.0)

    def test_zero_or_negative_charge_is_noop(self):
        sim, trace, channel, node = build_node()
        node.charge_cpu(0.0)
        node.charge_cpu(-1.0)
        assert node.cpu_available_at == 0.0

    def test_run_task_accounts_cost(self):
        sim, trace, channel, node = build_node()
        calls = []
        node.run_task(lambda: calls.append(sim.now))
        sim.run_window(1.0)
        assert calls == [0.0]
        assert node.cpu_available_at > 0.0


class TestDmaPath:
    def test_unaligned_dma_delays_small_frames(self):
        aligned = build_node(dma=DmaConfig(alignment_enabled=True))
        unaligned = build_node(dma=DmaConfig(alignment_enabled=False))
        results = {}
        for name, (sim, trace, channel, node) in (("aligned", aligned),
                                                  ("unaligned", unaligned)):
            stack = BusyStack(node)
            node.bind_stack(stack)
            node.deliver_frame(Frame(sender=1, payload="x", size_bytes=20))
            sim.run_window(5.0)
            results[name] = stack.processed[0][0]
        assert results["unaligned"] > results["aligned"]


class TestCrashBehaviour:
    def test_crashed_node_neither_sends_nor_processes(self):
        sim, trace, channel, node = build_node()
        stack = BusyStack(node)
        node.bind_stack(stack)
        node.crash()
        node.broadcast({"from": "crashed"}, 60)
        node.deliver_frame(Frame(sender=1, payload="a", size_bytes=50))
        sim.run_window(5.0)
        assert stack.processed == []
        assert trace.nodes[0].channel_accesses == 0


class TestInterfaces:
    def test_unknown_interface_raises(self):
        sim, trace, channel, node = build_node()
        with pytest.raises(KeyError):
            node._enqueue_frame({"p": 1}, 10, "radio9")

    def test_per_channel_stack_binding(self):
        sim = Simulator()
        trace = NetworkTrace()
        channel_a = WirelessChannel(sim, LORA_SF7_125KHZ, trace, name="chA")
        channel_b = WirelessChannel(sim, LORA_SF7_125KHZ, trace, name="chB")
        node = NetworkNode(sim, 0, trace)
        node.add_interface("radio0", CsmaMac(sim, 0, channel_a, CsmaConfig(),
                                             trace, sim.rng))
        node.add_interface("radio1", CsmaMac(sim, 0, channel_b, CsmaConfig(),
                                             trace, sim.rng))
        stack_a, stack_b = BusyStack(node), BusyStack(node)
        node.bind_stack(stack_a, channel="chA")
        node.bind_stack(stack_b, channel="chB")
        node.deliver_frame(Frame(sender=1, payload="a", size_bytes=10, channel="chA"))
        node.deliver_frame(Frame(sender=2, payload="b", size_bytes=10, channel="chB"))
        sim.run_window(1.0)
        assert [p for _t, _s, p in stack_a.processed] == ["a"]
        assert [p for _t, _s, p in stack_b.processed] == ["b"]

    def test_a_mac_cannot_move_between_nodes(self):
        # the channel binds mac.node.deliver_frame when it schedules a
        # delivery; a MAC re-homed mid-run would strand frames in flight
        sim, trace, channel, node = build_node()
        mac = node.interfaces["radio0"]
        node.add_interface("radio1", mac)  # same node: allowed
        with pytest.raises(ValueError, match="cannot move"):
            NetworkNode(sim, 1, trace).add_interface("radio0", mac)
        assert mac.node is node

    def test_default_stack_receives_unmapped_channels(self):
        sim, trace, channel, node = build_node()
        stack = BusyStack(node)
        node.bind_stack(stack)
        node.deliver_frame(Frame(sender=1, payload="x", size_bytes=10,
                                 channel="other"))
        sim.run_window(1.0)
        assert len(stack.processed) == 1
