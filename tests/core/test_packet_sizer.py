"""Tests for the logical-message / packet model and the size estimator.

The structural tests at the bottom size the packets the running
ConsensusBatcher builds (captured around ``_make_packet``), so they check the
one packet model every run uses, not a re-description of Figs. 4-6.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batcher import SMALL_VALUE_KINDS
from repro.core.packet import ComponentMessage, PacketSizer, SizeProfile
from repro.protocols.base import PROTOCOL_NAMES
from repro.testbed.harness import (
    run_aba_experiment,
    run_broadcast_experiment,
    run_consensus,
)
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import WorkloadSpec
from tests.helpers import capture_batched_packets, full_instance_packets


def make_message(kind="rbc", instance=0, phase="echo", sender=1, payload=None,
                 payload_bytes=0, share_bytes=0, round_number=0, tag="t",
                 slot=None):
    return ComponentMessage(kind=kind, instance=instance, phase=phase,
                            sender=sender, payload=payload or {},
                            payload_bytes=payload_bytes, share_bytes=share_bytes,
                            round=round_number, tag=tag, slot=slot)


class TestComponentMessage:
    def test_slot_key_distinguishes_instances_phases_rounds_and_slots(self):
        base = make_message()
        assert base.slot_key() != make_message(instance=1).slot_key()
        assert base.slot_key() != make_message(phase="ready").slot_key()
        assert base.slot_key() != make_message(round_number=1).slot_key()
        assert base.slot_key() != make_message(slot=2).slot_key()
        assert base.slot_key() == make_message(sender=3).slot_key()

    def test_describe_is_readable(self):
        text = make_message(kind="aba_sc", instance=2, phase="bval",
                            round_number=3, sender=1).describe()
        assert "aba_sc" in text and "bval" in text and "r3" in text


class TestPacketSizer:
    def setup_method(self):
        self.sizer = PacketSizer(4, SizeProfile(digital_signature_bytes=40,
                                                threshold_share_bytes=21))

    def test_baseline_initial_carries_full_proposal(self):
        message = make_message(phase="initial", payload_bytes=500)
        size = self.sizer.baseline_packet_bytes(message)
        assert size >= 500 + 40 + 10

    def test_baseline_vote_carries_hash(self):
        message = make_message(phase="echo")
        size = self.sizer.baseline_packet_bytes(message)
        assert 40 + 10 + 32 <= size <= 40 + 10 + 32 + 4

    def test_baseline_share_phase_includes_threshold_share(self):
        plain = self.sizer.baseline_packet_bytes(make_message(phase="ready"))
        with_share = self.sizer.baseline_packet_bytes(
            make_message(phase="done", share_bytes=21))
        assert with_share > plain

    def test_batched_packet_amortizes_signature(self):
        messages = [make_message(instance=i, phase="echo") for i in range(4)]
        batched = self.sizer.batched_packet_bytes(messages)
        separate = sum(self.sizer.baseline_packet_bytes(m) for m in messages)
        assert batched < separate

    def test_batched_small_values_cheaper_than_hashed(self):
        votes = [make_message(kind="rbc_small", instance=i, phase="echo")
                 for i in range(4)]
        hashed = [make_message(kind="rbc", instance=i, phase="echo")
                  for i in range(4)]
        assert (self.sizer.batched_packet_bytes(votes, small_values=True)
                < self.sizer.batched_packet_bytes(hashed, small_values=False))

    def test_batched_counts_each_instance_hash_once(self):
        one_phase = [make_message(instance=0, phase="echo")]
        two_phases = [make_message(instance=0, phase="echo"),
                      make_message(instance=0, phase="ready")]
        delta = (self.sizer.batched_packet_bytes(two_phases)
                 - self.sizer.batched_packet_bytes(one_phase))
        assert delta < 32  # second phase adds NACK + vote, not another hash

    def test_empty_batched_packet_is_header_plus_signature(self):
        assert self.sizer.batched_packet_bytes([]) == 10 + 40

    def test_invalid_num_nodes(self):
        with pytest.raises(ValueError):
            PacketSizer(0)

    @given(count=st.integers(min_value=1, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_batched_size_grows_monotonically_with_messages(self, count):
        messages = [make_message(instance=i % 4, phase="echo", slot=i)
                    for i in range(count)]
        smaller = self.sizer.batched_packet_bytes(messages[:max(1, count // 2)])
        larger = self.sizer.batched_packet_bytes(messages)
        assert larger >= smaller


class TestSizeProfile:
    def test_nack_bytes_rounding(self):
        profile = SizeProfile()
        assert profile.nack_bytes(1) == 1
        assert profile.nack_bytes(8) == 1
        assert profile.nack_bytes(9) == 2
        assert profile.nack_bytes(0) == 1


# ---------------------------------------------------------------------------
# packets built by the running batcher
# ---------------------------------------------------------------------------

PIN_SEED = 101


def _consensus_run(protocol, scenario=None):
    return lambda: run_consensus(
        protocol, scenario or Scenario.single_hop(4), batched=True,
        seed=PIN_SEED,
        workload_spec=WorkloadSpec(batch_size=2, transaction_bytes=32)).decided


def _broadcast_run(component, num_nodes=4, scenario=None):
    return lambda: run_broadcast_experiment(
        component, parallelism=num_nodes, num_nodes=num_nodes, batched=True,
        seed=PIN_SEED, scenario=scenario).completed


#: one n=4 epoch of each protocol plus the Table I component runs
PIN_RUNS = {
    **{protocol: _consensus_run(protocol) for protocol in PROTOCOL_NAMES},
    **{component: _broadcast_run(component)
       for component in ("rbc", "rbc-small", "cbc", "cbc-small", "prbc")},
    "aba-sc": lambda: run_aba_experiment(
        "sc", parallel_instances=4, batched=True, seed=PIN_SEED).completed,
    "aba-lc": lambda: run_aba_experiment(
        "lc", parallel_instances=2, batched=True, seed=PIN_SEED).completed,
}

#: the ``size_bytes`` of every full-instance packet (see
#: ``full_instance_packets``) of each run, per batcher group; a change here
#: moves airtime and so every virtual result
FULL_PACKET_BYTES = {
    "honeybadger-sc": {"rbc_init": [175], "rbc_er": [183, 188],
                       "aba_sc": [55, 60, 62], "coin": [104],
                       "acs_dec": [210]},
    "honeybadger-lc": {"rbc_init": [175], "rbc_er": [183, 188],
                       "aba_lc": [51, 52, 55, 56, 57, 58], "acs_dec": [210]},
    "beat": {"rbc_init": [175], "rbc_er": [183, 188], "aba_cp": [55, 60, 64],
             "coin": [104], "acs_dec": [210]},
    "dumbo-sc": {"rbc_init": [127], "rbc_er": [183, 188],
                 "prbc_done": [263], "cbc_init": [659], "cbc_ef": [285],
                 "cbc_small": [145, 167], "coin": [104], "aba_sc": [52, 54]},
    "dumbo-lc": {"rbc_init": [127], "rbc_er": [183, 188],
                 "prbc_done": [263], "cbc_init": [659], "cbc_ef": [285],
                 "cbc_small": [145, 167],
                 "aba_lc": [51, 52, 53, 54, 55, 57, 58, 61]},
    "rbc": {"rbc_init": [213], "rbc_er": [183, 188]},
    "rbc-small": {"rbc_small": [61]},
    "cbc": {"cbc_init": [213], "cbc_ef": [263, 285]},
    "cbc-small": {"cbc_small": [145]},
    "prbc": {"rbc_init": [213], "rbc_er": [183, 188], "prbc_done": [263]},
    "aba-sc": {"aba_sc": [55, 60, 67], "coin": [104]},
    "aba-lc": {"aba_lc": [51, 52, 53, 54, 55, 56, 57, 61]},
}

#: the batcher groups laid out in Figs. 4-6
FIGURE_GROUPS = {"rbc_init", "rbc_er", "rbc_small", "cbc_init", "cbc_ef",
                 "cbc_small", "prbc_done", "aba_lc", "aba_sc"}


def _capture(run):
    with capture_batched_packets() as packets:
        assert run()
    return packets


def _sizes(packets):
    return sorted({packet.size_bytes for packet in packets})


def _default_size(packet, profile=None):
    """The packet's size under the default (paper) field widths."""
    sizer = PacketSizer(4, profile)
    return sizer.batched_packet_bytes(
        packet.messages,
        small_values=packet.messages[0].kind in SMALL_VALUE_KINDS)


@pytest.fixture(scope="module")
def pin_packets():
    return {name: _capture(run) for name, run in PIN_RUNS.items()}


class TestBatcherPackets:
    @pytest.mark.parametrize("run", sorted(PIN_RUNS))
    def test_full_instance_sizes_are_pinned(self, pin_packets, run):
        full = full_instance_packets(pin_packets[run])
        assert {group: _sizes(packets)
                for group, packets in full.items()} == FULL_PACKET_BYTES[run]

    def test_runs_reach_every_figure_group(self):
        reached = {group for groups in FULL_PACKET_BYTES.values()
                   for group in groups}
        assert FIGURE_GROUPS <= reached

    def test_signature_width_adds_to_every_packet(self):
        # secp256r1 signs with 64 B where the default secp160r1 uses 40 B
        scenario = Scenario.single_hop(4).with_curves("secp256r1", "BN158")
        packets = _capture(_consensus_run("dumbo-sc", scenario))
        assert {packet.size_bytes - _default_size(packet)
                for packet in packets} == {24}

    def test_share_width_adds_once_per_share(self):
        # FP512BN shares are 65 B where the default BN158 uses 21 B
        scenario = Scenario.single_hop(4).with_curves("secp160r1", "FP512BN")
        wide = full_instance_packets(
            _capture(_broadcast_run("prbc", scenario=scenario)))
        narrow = full_instance_packets(_capture(_broadcast_run("prbc")))
        assert _sizes(narrow["prbc_done"]) == [263]
        assert _sizes(wide["prbc_done"]) == [263 + 4 * (65 - 21)]

    def test_small_value_kinds_carry_no_hash(self, pin_packets):
        hashless = SizeProfile(hash_bytes=0)
        small = [packet for packets in pin_packets.values()
                 for packet in packets
                 if packet.messages[0].kind in SMALL_VALUE_KINDS]
        assert {"rbc_small", "cbc_small", "aba_sc", "aba_lc", "aba_cp"} <= {
            packet.group[0] for packet in small}
        for packet in small:
            assert _default_size(packet, hashless) == packet.size_bytes

    def test_batched_rbc_er_carries_one_hash_per_instance(self, pin_packets):
        hashless = SizeProfile(hash_bytes=0)
        full = full_instance_packets(pin_packets["rbc"])["rbc_er"]
        for packet in full:
            assert packet.size_bytes - _default_size(packet, hashless) == 4 * 32

    def test_cbc_small_cheaper_than_cbc_ef(self, pin_packets):
        full = full_instance_packets(pin_packets["dumbo-sc"])
        assert max(_sizes(full["cbc_small"])) < min(_sizes(full["cbc_ef"]))


class TestNackWidths:
    @given(n=st.integers(min_value=2, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_batched_nack_field_is_one_bit_per_instance_per_phase(self, n):
        sizer = PacketSizer(n)
        assert sizer.batched_nack_bits == n
        echoes = [make_message(instance=i, phase="echo") for i in range(n)]
        readies = [make_message(instance=i, phase="ready") for i in range(n)]
        # a second phase adds its ceil(N/8)-byte NACK plus one vote byte per
        # message; the instance hashes are already in the packet
        delta = (sizer.batched_packet_bytes(echoes + readies)
                 - sizer.batched_packet_bytes(echoes))
        assert delta == math.ceil(n / 8) + n

    @given(n=st.integers(min_value=2, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_baseline_nack_field_is_one_bit_per_peer(self, n):
        sizer = PacketSizer(n)
        assert sizer.baseline_nack_bits == n - 1
        profile = sizer.profile
        vote = sizer.baseline_packet_bytes(make_message(phase="echo"))
        assert vote == (profile.header_bytes + profile.digital_signature_bytes
                        + profile.hash_bytes + 1 + math.ceil((n - 1) / 8))
