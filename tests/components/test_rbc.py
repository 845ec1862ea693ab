"""Tests for Bracha's RBC, RBC-small and Cachin's erasure-coded RBC."""

import dataclasses

import pytest

from repro.components.erasure import encode_blocks
from repro.components.rbc import BrachaRbc
from repro.components.rbc_cachin import CachinRbc
from repro.components.rbc_small import RbcSmall

from tests.helpers import InMemoryNetwork, make_message


def install(network, cls, instance=0, tag="t", **kwargs):
    """Create one component instance per node and register it."""
    outputs = {}
    components = []
    for node in network.nodes:
        component = cls(node.ctx, instance, tag=tag, **kwargs)
        component.on_output = (
            lambda nid: lambda _inst, value: outputs.setdefault(nid, value)
        )(node.node_id)
        node.router.register(component)
        components.append(component)
    return components, outputs


class TestBrachaRbc:
    def test_all_honest_nodes_deliver_proposal(self):
        network = InMemoryNetwork(4)
        components, outputs = install(network, BrachaRbc, instance=1)
        components[1].start(b"proposal from node 1")
        assert outputs == {0: b"proposal from node 1", 1: b"proposal from node 1",
                           2: b"proposal from node 1", 3: b"proposal from node 1"}

    def test_delivery_with_one_crashed_node(self):
        network = InMemoryNetwork(4)
        components, outputs = install(network, BrachaRbc, instance=0)
        network.drop(3)
        components[0].start(b"value survives one fault")
        for node in network.honest():
            assert outputs[node.node_id] == b"value survives one fault"

    def test_silent_proposer_delivers_nothing(self):
        network = InMemoryNetwork(4)
        _components, outputs = install(network, BrachaRbc, instance=2)
        # proposer (node 2) never starts
        assert outputs == {}

    def test_non_proposer_cannot_start(self):
        network = InMemoryNetwork(4)
        components, _outputs = install(network, BrachaRbc, instance=2)
        with pytest.raises(ValueError):
            components[0].start(b"not my instance")

    def test_initial_from_wrong_sender_ignored(self):
        network = InMemoryNetwork(4)
        _components, outputs = install(network, BrachaRbc, instance=2)
        forged = make_message("rbc", 2, "initial", sender=0,
                              payload={"value": b"forged"}, tag="t")
        for receiver in range(4):
            network.inject(receiver, forged)
        assert outputs == {}

    def test_agreement_despite_equivocating_echoes(self):
        # A Byzantine node sends echoes for a different value to some nodes;
        # honest nodes still agree on the proposer's value.
        network = InMemoryNetwork(4)
        components, outputs = install(network, BrachaRbc, instance=1)
        bogus = make_message("rbc", 1, "echo", sender=3,
                             payload={"hash": "ff" * 32}, tag="t")
        network.inject(0, bogus)
        network.inject(2, bogus)
        components[1].start(b"the real value")
        values = {outputs[node.node_id] for node in network.honest()}
        assert values == {b"the real value"}

    def test_ready_amplification_from_f_plus_1(self):
        # A node that saw no echoes but f+1 readies must send ready itself.
        network = InMemoryNetwork(4)
        components, _outputs = install(network, BrachaRbc, instance=1)
        target = components[0]
        ready = {"hash": "ab" * 32}
        network.nodes[0].transport.sent.clear()
        target.handle(make_message("rbc", 1, "ready", sender=2, payload=ready, tag="t"))
        target.handle(make_message("rbc", 1, "ready", sender=3, payload=ready, tag="t"))
        ready_sent = [m for m in network.nodes[0].transport.sent if m.phase == "ready"]
        assert len(ready_sent) == 1

    def test_no_delivery_without_quorum_of_readies(self):
        network = InMemoryNetwork(4)
        components, outputs = install(network, BrachaRbc, instance=1)
        target = components[0]
        target.handle(make_message("rbc", 1, "initial", sender=1,
                                   payload={"value": b"v"}, tag="t"))
        ready = {"hash": components[0].value_hash}
        target.handle(make_message("rbc", 1, "ready", sender=2, payload=ready, tag="t"))
        assert 0 not in outputs


class TestRbcSmall:
    def test_small_value_delivery(self):
        network = InMemoryNetwork(4)
        components, outputs = install(network, RbcSmall, instance=3)
        components[3].start(1)
        assert outputs == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_none_value_supported(self):
        network = InMemoryNetwork(4)
        components, outputs = install(network, RbcSmall, instance=0)
        components[0].start(None)
        assert outputs == {0: None, 1: None, 2: None, 3: None}

    def test_kind_is_rbc_small(self):
        network = InMemoryNetwork(4)
        components, _ = install(network, RbcSmall, instance=0)
        assert components[0].kind == "rbc_small"

    def test_delivery_with_crash_fault(self):
        network = InMemoryNetwork(4)
        components, outputs = install(network, RbcSmall, instance=0)
        network.drop(2)
        components[0].start(0)
        for node in network.honest():
            assert outputs[node.node_id] == 0


class TestCachinRbc:
    def test_erasure_coded_delivery(self):
        network = InMemoryNetwork(4)
        components, outputs = install(network, CachinRbc, instance=1)
        payload = b"erasure coded dispersal payload" * 3
        components[1].start(payload)
        assert outputs == {0: payload, 1: payload, 2: payload, 3: payload}

    def test_initial_phase_uses_n_minus_1_messages(self):
        network = InMemoryNetwork(4)
        components, _outputs = install(network, CachinRbc, instance=1)
        components[1].start(b"count the initial messages")
        initials = [m for m in network.nodes[1].transport.sent
                    if m.phase == "initial"]
        assert len(initials) == 3  # the paper's N - 1 broadcasts

    def test_delivery_with_crash_fault(self):
        network = InMemoryNetwork(4)
        components, outputs = install(network, CachinRbc, instance=0)
        network.drop(3)
        payload = b"survives a crash"
        components[0].start(payload)
        for node in network.honest():
            assert outputs[node.node_id] == payload

    def test_non_proposer_cannot_start(self):
        network = InMemoryNetwork(4)
        components, _ = install(network, CachinRbc, instance=1)
        with pytest.raises(ValueError):
            components[2].start(b"nope")

    # --- a faulty echoer must not be able to make an honest node deliver
    # --- bytes that are not the proposal
    def _hand_fed(self, payload=b"the proposal every honest node must agree on"):
        network = InMemoryNetwork(4)
        components, outputs = install(network, CachinRbc, instance=3)
        blocks = encode_blocks(payload, 2, 4)
        root = CachinRbc._root_of(blocks)

        def feed(phase, sender, **fields):
            components[0].handle(make_message(
                "rbc", 3, phase, sender, {"root": root, **fields}, tag="t"))

        def spoiled(block):
            return dataclasses.replace(
                block, values=tuple(value ^ 1 for value in block.values))

        feed("initial", 3, recipient=0, block=blocks[0])
        return payload, blocks, outputs, feed, spoiled

    def test_echo_carrying_another_nodes_block_is_not_stored(self):
        payload, blocks, outputs, feed, spoiled = self._hand_fed()
        feed("echo", 1, block=blocks[1])
        feed("echo", 2, block=blocks[2])
        feed("echo", 3, block=spoiled(blocks[1]))  # node 1's point, not its own
        feed("ready", 1)
        feed("ready", 2)
        assert outputs == {0: payload}

    def test_spoiled_own_block_leaves_the_instance_undelivered(self):
        _payload, blocks, outputs, feed, spoiled = self._hand_fed()
        feed("echo", 1, block=spoiled(blocks[1]))  # decoded with block 0
        feed("echo", 2, block=blocks[2])
        feed("ready", 1)
        feed("ready", 2)
        assert outputs == {}  # not the proposal, so nothing: never wrong bytes
