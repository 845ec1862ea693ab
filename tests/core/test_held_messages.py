"""What a held message costs and what it shares.

The batching transport keeps every instance's latest message until its
scope is released, because NACK repair may ask for it again.  So a
:class:`ComponentMessage` is slotted (no per-instance ``__dict__``), and a
one-bit vote's payload is one of the two module-level
:data:`VALUE_PAYLOADS` dicts.  That sharing rests on a contract: a payload
is read-only once sent.
"""

import dataclasses
import pickle

import pytest

from repro.components.aba_base import VALUE_PAYLOADS
from repro.core.batcher import BaseTransport
from repro.core.packet import ComponentMessage, Packet
from repro.net.channel import Frame
from repro.net.shard import decode_boundary_frame, encode_boundary_frame
from repro.protocols.base import PROTOCOL_NAMES
from repro.testbed.campaign import default_cells, run_cell
from repro.testbed.harness import run_consensus
from repro.testbed.scenarios import Scenario

VOTE_PHASES = ("bval", "aux", "decided")
PRISTINE = ({"value": 0}, {"value": 1})


def _vote(phase: str, sender: int, bit: int, instance: int = 0) -> ComponentMessage:
    return ComponentMessage(kind="aba_sc", instance=instance, phase=phase,
                            sender=sender, payload=VALUE_PAYLOADS[bit],
                            payload_bytes=1, round=2, tag=("hb", 0),
                            slot=bit if phase == "bval" else None)


class TestSlottedMessage:
    def test_has_no_instance_dict(self):
        message = _vote("bval", 1, 1)
        assert not hasattr(message, "__dict__")
        with pytest.raises(AttributeError):
            message.note = "no room for this"

    def test_replace_and_pickle_keep_every_field(self):
        message = _vote("aux", 3, 0)
        moved = dataclasses.replace(message, sender=2)
        assert (moved.sender, moved.payload, moved.round, moved.tag) == \
            (2, {"value": 0}, 2, ("hb", 0))
        assert moved.payload is VALUE_PAYLOADS[0]
        assert pickle.loads(pickle.dumps(message)) == message


class TestBoundaryRoundTrip:
    def test_batched_packet_of_shared_payloads_crosses_unchanged(self):
        messages = [_vote("bval", 1, 1, instance) for instance in range(4)]
        messages += [_vote("aux", 1, 0, 2), _vote("decided", 1, 1, 3)]
        packet = Packet(sender=1, messages=messages,
                        group=("aba_sc", ("hb", 0), 2), size_bytes=97,
                        signature=("sig", 1), digest=b"d" * 32)
        frame = Frame(sender=1, payload=packet, size_bytes=97, channel="global")
        frame.frame_id = 11
        decoded = decode_boundary_frame(encode_boundary_frame(frame))
        assert decoded.payload == packet
        assert [message.payload for message in decoded.payload.messages] == \
            [message.payload for message in messages]
        # one dict per distinct payload on the far side too
        far = decoded.payload.messages
        assert all(message.payload is far[0].payload for message in far[1:4])
        assert VALUE_PAYLOADS == PRISTINE


@pytest.fixture
def sent_votes(monkeypatch):
    """Every BVAL, AUX and DECIDED message a transport sends, recorded as it
    is delivered to its own node."""
    sent = []
    deliver_local = BaseTransport._deliver_local

    def recording(transport, message):
        if message.kind.startswith("aba_") and message.phase in VOTE_PHASES:
            sent.append(message)
        deliver_local(transport, message)

    monkeypatch.setattr(BaseTransport, "_deliver_local", recording)
    return sent


def _assert_shared_and_pristine(sent) -> None:
    assert sent
    assert all(message.payload is VALUE_PAYLOADS[0]
               or message.payload is VALUE_PAYLOADS[1] for message in sent)
    assert VALUE_PAYLOADS == PRISTINE


class TestVotePayloadsAreShared:
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_honest_epoch(self, protocol, sent_votes):
        for batched in (True, False):
            assert run_consensus(protocol, Scenario.single_hop(4), seed=37,
                                 batched=batched).decided
        _assert_shared_and_pristine(sent_votes)
        if protocol.endswith("-lc"):
            assert {message.phase for message in sent_votes} == {"decided"}
        else:
            assert {message.phase for message in sent_votes} == \
                set(VOTE_PHASES)

    def test_byzantine_campaign_quick_cells(self, sent_votes):
        cells = [cell for cell in default_cells(quick=True)
                 if cell.fault != "none" and not cell.stream_epochs
                 and cell.topology.label == "sh4"]
        assert len({cell.fault for cell in cells}) >= 8
        for cell in cells:
            assert run_cell(cell).ok, cell.cell_id
        _assert_shared_and_pristine(sent_votes)
