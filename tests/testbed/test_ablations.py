"""Ablation-style integration tests for the design choices DESIGN.md calls out.

These cover the knobs the paper motivates qualitatively: the DMA alignment
optimisation, the radio profile, the batched packets fitting a single LoRa
frame, and the multi-hop backbone forwarding cost.
"""

import pytest

from repro.core.dma import DmaConfig
from repro.net.radio import LORA_SF7_125KHZ, WIFI_LIKE
from repro.testbed.harness import (
    run_aba_experiment,
    run_broadcast_experiment,
    run_consensus,
)
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import WorkloadSpec
from tests.helpers import capture_batched_packets, full_instance_packets


class TestDmaAlignmentAblation:
    def test_disabling_alignment_increases_latency(self):
        aligned = Scenario.single_hop(4)
        unaligned = Scenario.single_hop(4).replace(
            dma=DmaConfig(alignment_enabled=False, idle_flush_s=0.08))
        fast = run_broadcast_experiment("rbc", parallelism=4, batched=True,
                                        seed=42, scenario=aligned)
        slow = run_broadcast_experiment("rbc", parallelism=4, batched=True,
                                        seed=42, scenario=unaligned)
        assert fast.completed and slow.completed
        assert slow.latency_s > fast.latency_s


class TestRadioProfileAblation:
    def test_wifi_class_radio_is_far_faster_than_lora(self):
        lora = Scenario.single_hop(4).with_radio(LORA_SF7_125KHZ)
        wifi = Scenario.single_hop(4).with_radio(WIFI_LIKE)
        spec = WorkloadSpec(batch_size=3, transaction_bytes=32)
        slow = run_consensus("beat", lora, batched=True, seed=43,
                             workload_spec=spec)
        fast = run_consensus("beat", wifi, batched=True, seed=43,
                             workload_spec=spec)
        assert slow.decided and fast.decided
        assert fast.latency_s < slow.latency_s / 2


def _full_packet_sizes(run) -> dict[str, list[int]]:
    """Sizes of the full-instance packets the batcher builds during ``run``."""
    with capture_batched_packets() as packets:
        assert run().completed
    return {group: [packet.size_bytes for packet in full]
            for group, full in full_instance_packets(packets).items()}


class TestPacketParallelismBudget:
    def test_small_value_packets_fit_one_lora_frame_at_n4(self):
        # The paper's packet-parallelism argument: the batched small-value
        # packets for N=4 must fit one maximum-size frame.
        frame_budget = LORA_SF7_125KHZ.max_payload_bytes
        small = _full_packet_sizes(lambda: run_broadcast_experiment(
            "rbc-small", parallelism=4, batched=True, seed=45))
        aba = _full_packet_sizes(lambda: run_aba_experiment(
            "sc", parallel_instances=4, batched=True, seed=45))
        assert max(small["rbc_small"]) <= frame_budget
        assert max(aba["aba_sc"]) <= frame_budget

    def test_full_rbc_er_packet_fits_one_frame_at_n4(self):
        sizes = _full_packet_sizes(lambda: run_broadcast_experiment(
            "rbc", parallelism=4, batched=True, seed=45))
        assert max(sizes["rbc_er"]) <= LORA_SF7_125KHZ.max_payload_bytes

    @pytest.mark.parametrize("num_nodes", [4, 7, 10])
    def test_rbc_er_growth_is_linear_in_n(self, num_nodes):
        sizes = _full_packet_sizes(lambda: run_broadcast_experiment(
            "rbc", parallelism=num_nodes, num_nodes=num_nodes, batched=True,
            seed=45))
        per_node = max(sizes["rbc_er"]) / num_nodes
        assert per_node < 64  # dominated by one 32-byte hash per instance


class TestBackboneForwardingCost:
    def test_longer_forwarding_delay_slows_multihop_consensus(self):
        from repro.testbed.harness import run_multihop_consensus

        near = Scenario.multi_hop(4, 4).replace(per_hop_forward_s=0.05)
        far = Scenario.multi_hop(4, 4).replace(per_hop_forward_s=1.5)
        spec = WorkloadSpec(batch_size=2, transaction_bytes=32)
        quick = run_multihop_consensus("beat", near, batched=True, seed=44,
                                       workload_spec=spec)
        slow = run_multihop_consensus("beat", far, batched=True, seed=44,
                                      workload_spec=spec)
        assert quick.decided and slow.decided
        assert slow.latency_s > quick.latency_s
