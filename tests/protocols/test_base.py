"""Tests for protocol plumbing: names, batch encoding, block digests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols.base import (
    PROTOCOL_NAMES,
    ConsensusProtocol,
    ProtocolName,
    block_digest,
    decode_batch,
    encode_batch,
)
from repro.protocols.multihop import (
    decode_cluster_contribution,
    encode_cluster_contribution,
    select_leader,
)
from repro.net.topology import MultiHopTopology


class TestProtocolNames:
    def test_all_five_protocols_listed(self):
        assert set(PROTOCOL_NAMES) == {"honeybadger-sc", "honeybadger-lc",
                                       "beat", "dumbo-sc", "dumbo-lc"}

    def test_validation_and_normalisation(self):
        assert ProtocolName.validate("  Dumbo-SC ") == "dumbo-sc"
        with pytest.raises(ValueError):
            ProtocolName.validate("pbft")

    def test_family_and_coin(self):
        assert ProtocolName.family("honeybadger-lc") == "honeybadger"
        assert ProtocolName.coin("honeybadger-lc") == "lc"
        assert ProtocolName.coin("beat") == "cp"
        assert ProtocolName.family("dumbo-sc") == "dumbo"


class TestBatchEncoding:
    def test_roundtrip(self):
        batch = [b"tx-1", b"", b"a longer transaction body"]
        assert decode_batch(encode_batch(batch)) == batch

    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_truncated_payload_rejected(self):
        encoded = encode_batch([b"tx"])
        with pytest.raises(ValueError):
            decode_batch(encoded[:-1])
        with pytest.raises(ValueError):
            decode_batch(b"\x00")

    @given(batch=st.lists(st.binary(min_size=0, max_size=64), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, batch):
        assert decode_batch(encode_batch(batch)) == batch

    def test_block_digest_is_order_sensitive_and_stable(self):
        assert block_digest([b"a", b"b"]) == block_digest([b"a", b"b"])
        assert block_digest([b"a", b"b"]) != block_digest([b"b", b"a"])
        assert block_digest([]) == block_digest([])


class _FakeSim:
    now = 3.5
    milestones = 0


class _FakeCtx:
    node_id = 1
    sim = _FakeSim()


class TestInvariantHooks:
    def test_witness_before_and_after_decision(self):
        protocol = ConsensusProtocol(_FakeCtx(), router=None)
        undecided = protocol.witness()
        assert not undecided.decided
        assert undecided.digest is None and undecided.block is None
        protocol._finish([b"a", b"b"])
        witness = protocol.witness()
        assert witness.decided and witness.node_id == 1
        assert witness.block == (b"a", b"b")
        assert witness.digest == block_digest([b"a", b"b"])
        assert witness.decide_time == 3.5

    def test_equivocation_hook_defaults_to_unsupported(self):
        protocol = ConsensusProtocol(_FakeCtx(), router=None)
        assert protocol.inject_conflicting_proposal([b"tx"]) is False


class TestMultiHopHelpers:
    def test_cluster_contribution_roundtrip(self):
        payload = encode_cluster_contribution(2, [b"tx-a", b"tx-b"])
        cluster, block = decode_cluster_contribution(payload)
        assert cluster == 2
        assert block == [b"tx-a", b"tx-b"]

    def test_truncated_contribution_rejected(self):
        with pytest.raises(ValueError):
            decode_cluster_contribution(b"\x00\x01")

    def test_leader_selection_deterministic_and_in_cluster(self):
        topology = MultiHopTopology([4, 4])
        cluster = topology.clusters[1]
        leader_a = select_leader(cluster, epoch=0)
        leader_b = select_leader(cluster, epoch=0)
        assert leader_a == leader_b
        assert leader_a in cluster.node_ids

    def test_leader_rotation_on_exclusion(self):
        topology = MultiHopTopology([4, 4])
        cluster = topology.clusters[0]
        first = select_leader(cluster, epoch=0)
        replacement = select_leader(cluster, epoch=0, excluded=frozenset({first}))
        assert replacement != first
        assert replacement in cluster.node_ids

    def test_no_eligible_leader_raises(self):
        topology = MultiHopTopology([4])
        cluster = topology.clusters[0]
        with pytest.raises(ValueError):
            select_leader(cluster, epoch=0, excluded=frozenset(cluster.node_ids))
