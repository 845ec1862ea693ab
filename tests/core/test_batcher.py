"""Tests for the ConsensusBatcher transport and the baseline transport."""

import random

from repro.core.batcher import ConsensusBatcherTransport, BaselineTransport
from repro.core.packet import ComponentMessage, Packet, tag_scope_chain
from repro.crypto.digital_sig import Signature

from tests.helpers import build_cluster, make_message, run_until


def transports_of(deployment):
    return {node_id: runtime.transport
            for node_id, runtime in deployment.runtimes.items()}


def install_collectors(deployment):
    """Replace the router receiver with a plain message collector."""
    received = {node_id: [] for node_id in deployment.nodes}
    for node_id, runtime in deployment.runtimes.items():
        runtime.transport.register_receiver(
            lambda message, nid=node_id: received[nid].append(message))
    return received


class TestGrouping:
    def test_group_of_follows_figure_layouts(self):
        group_of = ConsensusBatcherTransport.group_of
        assert group_of(make_message("rbc", 0, "initial", 0, {}, tag="t")) == ("rbc_init", "t")
        assert group_of(make_message("rbc", 1, "echo", 0, {}, tag="t")) == ("rbc_er", "t")
        assert group_of(make_message("prbc", 1, "ready", 0, {}, tag="t")) == ("rbc_er", "t")
        assert group_of(make_message("prbc", 1, "done", 0, {}, tag="t")) == ("prbc_done", "t")
        assert group_of(make_message("cbc", 2, "initial", 0, {}, tag="t")) == ("cbc_init", "t")
        assert group_of(make_message("cbc", 2, "finish", 0, {}, tag="t")) == ("cbc_ef", "t")
        assert group_of(make_message("cbc_small", 2, "echo_sig", 0, {}, tag="t")) == ("cbc_small", "t")
        assert group_of(make_message("aba_sc", 0, "bval", 0, {}, tag="t",
                                     round_number=2)) == ("aba_sc", "t", 2)
        assert group_of(make_message("coin", 0, "share", 0, {}, tag="t",
                                     round_number=2)) == ("coin", "t", 2)
        assert group_of(make_message("acs_dec", 1, "share", 0, {}, tag="t")) == (
            "acs_dec", "t", "share")


class TestBatchedTransport:
    def test_messages_sent_together_share_one_channel_access(self):
        deployment = build_cluster(batched=True, seed=1)
        received = install_collectors(deployment)
        transports = transports_of(deployment)
        sender = transports[0]
        for instance in range(4):
            sender.activate("rbc", "t", instance)
            sender.send(make_message("rbc", instance, "echo", 0,
                                     {"hash": f"h{instance}"}, tag="t"))
        run_until(deployment,
                  lambda: all(len(received[peer]) >= 4 for peer in (1, 2, 3)),
                  timeout=30)
        deployment.shutdown()
        # four logical messages, one packet, one channel access
        assert deployment.trace.nodes[0].channel_accesses == 1
        assert deployment.trace.nodes[0].logical_messages_sent == 4
        assert len(received[2]) == 4
        assert len(received[3]) == 4

    def test_local_delivery_happens_immediately(self):
        deployment = build_cluster(batched=True, seed=2)
        received = install_collectors(deployment)
        transport = transports_of(deployment)[0]
        transport.activate("rbc", "t", 0)
        transport.send(make_message("rbc", 0, "echo", 0, {"hash": "h"}, tag="t"))
        assert len(received[0]) == 1
        deployment.shutdown()

    def test_updates_while_waiting_merge_into_same_packet(self):
        deployment = build_cluster(batched=True, seed=3)
        received = install_collectors(deployment)
        transports = transports_of(deployment)
        # occupy the channel with a large transmission from node 3
        transports[3].activate("rbc", "t", 0)
        transports[3].send(make_message("rbc", 0, "initial", 3, {"value": b"x"},
                                        tag="t", payload_bytes=600))
        # wait until node 3 is actually on the air, then queue two updates on
        # node 0: both must ride the single packet node 0 sends once the
        # channel frees up.
        run_until(deployment,
                  lambda: deployment.trace.nodes[3].channel_accesses >= 1,
                  timeout=30)
        transports[0].activate("rbc", "t", 0)
        transports[0].activate("rbc", "t", 1)
        transports[0].send(make_message("rbc", 0, "echo", 0, {"hash": "a"}, tag="t"))
        transports[0].send(make_message("rbc", 1, "echo", 0, {"hash": "b"}, tag="t"))
        run_until(deployment,
                  lambda: len([m for m in received[1] if m.sender == 0]) >= 2,
                  timeout=60)
        deployment.shutdown()
        assert deployment.trace.nodes[0].channel_accesses == 1

    def test_inactive_instances_are_not_transmitted(self):
        deployment = build_cluster(batched=True, seed=4)
        received = install_collectors(deployment)
        transport = transports_of(deployment)[0]
        # never activated: the builder finds nothing to send
        transport.send(make_message("rbc", 7, "echo", 0, {"hash": "x"}, tag="t"))
        deployment.sim.run(until=10)
        deployment.shutdown()
        assert deployment.trace.nodes[0].channel_accesses == 0
        assert all(not received[node_id] for node_id in (1, 2, 3))

    def test_unsigned_or_forged_packets_rejected(self):
        deployment = build_cluster(batched=True, seed=5)
        received = install_collectors(deployment)
        transports = transports_of(deployment)
        genuine = transports[0]
        genuine.activate("rbc", "t", 0)
        genuine.send(make_message("rbc", 0, "echo", 0, {"hash": "h"}, tag="t"))
        run_until(deployment, lambda: len(received[1]) >= 1, timeout=30)
        # replay node 0's packet but claim it came from node 2 (local id 2):
        # receivers verify the packet signature against the claimed sender.
        packet = None

        class Recorder:
            def handle_frame(self, sender, payload):
                nonlocal packet
                packet = payload

        # capture one packet by building it directly from the transport
        dirty_message = make_message("rbc", 0, "ready", 0, {"hash": "h"}, tag="t")
        genuine.send(dirty_message)
        built = genuine._build_packet(("rbc_er", "t"))
        assert built is not None
        forged_packet, _size = built
        forged_packet.sender = 2  # claim somebody else's identity
        before = len(received[3])
        transports[3].handle_frame(0, forged_packet)
        deployment.shutdown()
        assert len(received[3]) == before  # rejected

    def test_malformed_signature_drops_the_packet_not_the_run(self):
        """A peer controls every packet field: no (or a wrong-typed)
        signature or sender is a bad packet, not an exception."""
        deployment = build_cluster(batched=True, seed=7)
        received = install_collectors(deployment)
        transports = transports_of(deployment)
        sender = transports[0]
        sender.activate("rbc", "t", 0)
        sender.send(make_message("rbc", 0, "echo", 0, {"hash": "h"}, tag="t"))
        packet, _size = sender._build_packet(("rbc_er", "t"))
        good_signature = packet.signature
        for signature, claimed in ((None, 0), ("sig", 0), ((1, 2), 0),
                                  (Signature(None, 1), 0),
                                  (Signature("1", "2"), 0),
                                  (good_signature, "0"),
                                  (good_signature, None)):
            packet.signature, packet.sender = signature, claimed
            transports[3].handle_frame(0, packet)
            assert not received[3]
        packet.signature, packet.sender = good_signature, 0
        transports[3].handle_frame(0, packet)
        deployment.shutdown()
        assert len(received[3]) == 1

    def test_a_packet_claiming_to_be_unsigned_is_still_verified(self):
        """No packet field lets a receiver skip verification: a packet that
        a peer marks ``signed = False`` and sends without a signature is
        dropped."""
        deployment = build_cluster(batched=True, seed=7)
        received = install_collectors(deployment)
        packet = Packet(sender=0, signature=None, messages=[
            make_message("rbc", 0, "echo", 0, {"hash": "h"}, tag="t")])
        packet.signed = False
        transports_of(deployment)[1].handle_frame(0, packet)
        deployment.shutdown()
        assert not received[1]

    def test_a_signer_cannot_speak_for_another_node(self):
        """Node 3 validly signs a packet carrying a message that claims
        node 0 as its sender: the message is dropped, node 3's own kept."""
        deployment = build_cluster(batched=True, seed=7)
        received = install_collectors(deployment)
        transports = transports_of(deployment)
        forged = make_message("rbc", 0, "echo", 0, {"hash": "h"}, tag="t")
        own = make_message("rbc", 1, "echo", 3, {"hash": "h"}, tag="t")
        packet = transports[3]._finalize_packet(
            Packet(sender=3, messages=[forged, own], group=("rbc_er", "t")))
        transports[1].handle_frame(3, packet)
        deployment.shutdown()
        assert received[1] == [own]

    def test_nack_repair_recovers_missing_state(self):
        deployment = build_cluster(batched=True, seed=6)
        received = install_collectors(deployment)
        transports = transports_of(deployment)
        # node 0 broadcasts state while node 1 is "transmitting" (misses it):
        # emulate the loss by crashing node 1's radio momentarily -- simplest
        # is to deliver to everyone, then wipe node 1's record and check that
        # a NACK request brings the data back.
        transports[0].activate("rbc", "t", 0)
        transports[0].send(make_message("rbc", 0, "echo", 0, {"hash": "h"}, tag="t"))
        run_until(deployment, lambda: len(received[2]) >= 1, timeout=30)
        received[1].clear()
        # node 1 is stuck on instance 0 and asks for repair
        transports[1].activate("rbc", "t", 0)
        transports[1]._send_nack_request(("rbc", "t"), {0})
        run_until(deployment,
                  lambda: any(m.phase == "echo" for m in received[1]), timeout=60)
        deployment.shutdown()
        assert any(m.sender == 0 and m.phase == "echo" for m in received[1])


class TestBaselineTransport:
    def test_one_channel_access_per_logical_message(self):
        deployment = build_cluster(batched=False, seed=7)
        received = install_collectors(deployment)
        transport = transports_of(deployment)[0]
        for instance in range(4):
            transport.activate("rbc", "t", instance)
            transport.send(make_message("rbc", instance, "echo", 0,
                                        {"hash": f"h{instance}"}, tag="t"))
        run_until(deployment, lambda: len(received[1]) >= 4, timeout=60)
        deployment.shutdown()
        assert deployment.trace.nodes[0].channel_accesses == 4

    def test_baseline_packets_are_larger_in_aggregate(self):
        batched = build_cluster(batched=True, seed=8)
        baseline = build_cluster(batched=False, seed=8)
        for deployment in (batched, baseline):
            received = install_collectors(deployment)
            transport = transports_of(deployment)[0]
            for instance in range(4):
                transport.activate("rbc", "t", instance)
                transport.send(make_message("rbc", instance, "echo", 0,
                                            {"hash": f"h{instance}"}, tag="t"))
            run_until(deployment, lambda: len(received[1]) >= 4, timeout=60)
            deployment.shutdown()
        assert (batched.trace.total_bytes_sent
                < baseline.trace.total_bytes_sent)

    def test_nack_response_rebroadcasts_latest_messages(self):
        deployment = build_cluster(batched=False, seed=9)
        received = install_collectors(deployment)
        transports = transports_of(deployment)
        transports[2].activate("cbc", "t", 1)
        transports[2].send(make_message("cbc", 1, "finish", 2,
                                        {"hash": "h", "certificate": "c"}, tag="t"))
        run_until(deployment, lambda: len(received[0]) >= 1, timeout=30)
        received[0].clear()
        transports[0].activate("cbc", "t", 1)
        transports[0]._send_nack_request(("cbc", "t"), {1})
        run_until(deployment,
                  lambda: any(m.phase == "finish" for m in received[0]), timeout=60)
        deployment.shutdown()
        assert any(m.sender == 2 for m in received[0])


def per_message_handle_frame(transport, payload):
    """The receive loop as it was before family bookkeeping was hoisted out
    of it: everything re-derived for every message (the reference)."""
    for message in payload.messages:
        if message.kind == transport.NACK_KIND:
            transport._on_nack_request(message)
            continue
        if not transport._released_tags or not any(
                root in transport._released_tags
                for root in tag_scope_chain(message.tag)):
            transport._family_last_rx[(message.kind, message.tag)] = \
                transport.node.sim.now
        transport.trace.record_logical_receive(transport.node.node_id)
        transport._receiver(message)


class TestReceiveLoop:
    def test_release_from_a_receiver_callback_matches_the_per_message_loop(self):
        """Multi-family packets whose receiver calls ``release_tag`` mid-packet
        (as a checkpoint triggered by a delivered message does)."""
        rng = random.Random(31)
        roots = [("e", 0), ("e", 1), "plain"]
        tags = roots + [(("e", 0), "aba"), ((("e", 1), "aba"), 3)]
        delivered = 0
        for _ in range(60):
            deployment = build_cluster(batched=True, seed=11)
            fast, slow = (deployment.runtimes[node].transport for node in (1, 2))
            deployment.sim.run(until=rng.uniform(0.0, 2.0))  # a nonzero clock
            messages = []
            while len(messages) < 12:  # runs of one family, as batching makes
                kind = rng.choice(["rbc", "aba_sc", "nack"])
                tag = rng.choice(tags)
                messages += [make_message(kind, index, "echo", 0, None, tag=tag)
                             for index in range(rng.randrange(1, 4))]
            releases = {rng.randrange(12): rng.choice(roots) for _ in range(2)}
            packet = deployment.runtimes[0].transport._finalize_packet(
                Packet(sender=0, messages=messages, group=("g",)))
            seen = {}
            for transport in (fast, slow):
                seen[transport] = []

                def receiver(message, transport=transport):
                    index = len(seen[transport])
                    seen[transport].append(message)
                    if index in releases:
                        transport.release_tag(releases[index])

                transport.register_receiver(receiver)
                transport.release_tag(("e", 9))  # an already-released scope
            fast.handle_frame(0, packet)
            per_message_handle_frame(slow, packet)
            deployment.shutdown()
            assert fast._family_last_rx == slow._family_last_rx
            assert fast._released_tags == slow._released_tags
            assert seen[fast] == seen[slow]
            received = [deployment.trace.nodes[node].logical_messages_received
                        for node in (1, 2)]
            assert received[0] == received[1] == len(seen[fast])
            delivered += len(seen[fast])
        assert delivered > 300  # the packets were not rejected wholesale


class TestActivationBookkeeping:
    def test_activate_retire_complete_cycle(self):
        deployment = build_cluster(batched=True, seed=10)
        transport = transports_of(deployment)[0]
        transport.activate("rbc", "t", 0)
        assert transport.is_active("rbc", "t", 0)
        assert ("rbc", "t") in transport._unfinished()
        transport.mark_complete("rbc", "t", 0)
        assert ("rbc", "t") not in transport._unfinished()
        transport.mark_incomplete("rbc", "t", 0)
        assert ("rbc", "t") in transport._unfinished()
        transport.retire("rbc", "t", 0)
        assert not transport.is_active("rbc", "t", 0)
        deployment.shutdown()
