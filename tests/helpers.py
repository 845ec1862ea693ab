"""Shared test utilities.

Two complementary ways of exercising consensus components:

* :class:`InMemoryNetwork` -- a zero-latency, perfectly reliable message fabric
  implementing the transport interface.  It makes component state machines
  fully deterministic and lets tests inject arbitrary (including Byzantine)
  messages without simulating radios.
* :func:`build_cluster` -- a real simulated deployment (channels, CSMA, CPU
  model, crypto) built through the testbed harness, for integration tests
  that exercise timing, batching and reliability.
"""

from __future__ import annotations

import hashlib
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.components.base import ComponentContext, ComponentRouter
from repro.core.batcher import ConsensusBatcherTransport
from repro.core.packet import ComponentMessage, Packet
from repro.crypto.digital_sig import generate_keyring
from repro.crypto.threshold_coin import deal_threshold_coin
from repro.crypto.threshold_enc import deal_threshold_enc
from repro.crypto.threshold_sig import deal_threshold_sig
from repro.crypto.timing import CryptoSuite
from repro.net.sim import Simulator
from repro.net.topology import faults_tolerated
from repro.testbed.harness import Deployment, build_deployment
from repro.testbed.scenarios import Scenario


def drain(sim: Simulator) -> None:
    """Run every queued event and leave the clock at the last one: a
    ``run_until`` whose predicate never holds."""
    sim.run_until(lambda: False, timeout=math.inf)


def epoch_digests(result) -> tuple:
    """A streaming result's block digest of every decided epoch, in order."""
    return tuple(record.block_digest for record in result.per_epoch)


class InMemoryTransport:
    """Transport stub: broadcasts are delivered synchronously to every peer."""

    def __init__(self, network: "InMemoryNetwork", node_id: int) -> None:
        self.network = network
        self.node_id = node_id
        self.local_id = node_id
        self.sent: list[ComponentMessage] = []
        self._receiver: Optional[Callable[[ComponentMessage], None]] = None
        self._active: set[tuple] = set()
        self._complete: set[tuple] = set()

    # transport interface --------------------------------------------------
    def register_receiver(self, callback) -> None:
        self._receiver = callback

    def activate(self, key) -> None:
        self._active.add(key)

    def mark_complete(self, key) -> None:
        self._complete.add(key)

    def mark_incomplete(self, key) -> None:
        self._complete.discard(key)

    def send(self, message: ComponentMessage) -> None:
        self.sent.append(message)
        self.network.broadcast(self.node_id, message)

    # test hooks ------------------------------------------------------------
    def deliver(self, message: ComponentMessage) -> None:
        if self._receiver is not None:
            self._receiver(message)


@dataclass
class InMemoryNode:
    """One logical node of the in-memory fabric."""

    node_id: int
    ctx: ComponentContext
    router: ComponentRouter
    transport: InMemoryTransport


class InMemoryNetwork:
    """A fully connected, instant, lossless network of ``num_nodes`` nodes.

    ``drop`` can be used to silence specific nodes (crash faults) and
    :meth:`inject` delivers a hand-crafted (possibly Byzantine) message to one
    receiver only.
    """

    def __init__(self, num_nodes: int = 4, seed: int = 0,
                 deliver_to_self: bool = True) -> None:
        self.num_nodes = num_nodes
        self.faults = faults_tolerated(num_nodes)
        self.deliver_to_self = deliver_to_self
        self.dropped: set[int] = set()
        self.nodes: list[InMemoryNode] = []
        rng = random.Random(seed)
        sim = Simulator(seed=seed)
        signing_keys, verify_keys = generate_keyring(num_nodes, rng)
        tsig = deal_threshold_sig(num_nodes, 2 * self.faults + 1, rng)
        tcoin = deal_threshold_coin(num_nodes, self.faults + 1, rng, flavor="tsig")
        tflip = deal_threshold_coin(num_nodes, self.faults + 1, rng, flavor="flip")
        tenc = deal_threshold_enc(num_nodes, self.faults + 1, rng)
        for node_id in range(num_nodes):
            transport = InMemoryTransport(self, node_id)
            suite = CryptoSuite(
                node_id=node_id,
                signing_key=signing_keys[node_id],
                verify_keys=verify_keys,
                threshold_sig=tsig[node_id],
                threshold_coin=tcoin[node_id],
                coin_flip=tflip[node_id],
                threshold_enc=tenc[node_id],
                rng=random.Random(seed * 1000 + node_id),
            )
            ctx = ComponentContext(
                node_id=node_id, num_nodes=num_nodes, faults=self.faults,
                transport=transport, suite=suite, sim=sim,
                rng=random.Random(seed * 77 + node_id))
            router = ComponentRouter()
            transport.register_receiver(router.dispatch)
            self.nodes.append(InMemoryNode(node_id=node_id, ctx=ctx,
                                           router=router, transport=transport))

    # ------------------------------------------------------------------ fabric
    def broadcast(self, sender: int, message: ComponentMessage) -> None:
        """Deliver ``message`` from ``sender`` to every non-dropped node."""
        if sender in self.dropped:
            return
        for node in self.nodes:
            if node.node_id in self.dropped:
                continue
            if node.node_id == sender and not self.deliver_to_self:
                continue
            node.transport.deliver(message)

    def inject(self, receiver: int, message: ComponentMessage) -> None:
        """Deliver a crafted message to a single receiver (Byzantine testing)."""
        self.nodes[receiver].transport.deliver(message)

    def drop(self, node_id: int) -> None:
        """Silence a node (crash fault)."""
        self.dropped.add(node_id)

    def honest(self) -> list[InMemoryNode]:
        """Nodes that have not been dropped."""
        return [node for node in self.nodes if node.node_id not in self.dropped]


def make_message(kind: str, instance: int, phase: str, sender: int,
                 payload: Any, tag: Any = None, round_number: int = 0,
                 slot: Any = None, payload_bytes: int = 0,
                 share_bytes: int = 0) -> ComponentMessage:
    """Convenience constructor for hand-crafted messages in tests."""
    return ComponentMessage(kind=kind, instance=instance, phase=phase,
                            sender=sender, payload=payload, tag=tag,
                            round=round_number, slot=slot,
                            payload_bytes=payload_bytes, share_bytes=share_bytes)


def build_cluster(num_nodes: int = 4, batched: bool = True,
                  seed: int = 0, **scenario_overrides) -> Deployment:
    """A real simulated single-hop deployment for integration tests."""
    scenario = Scenario.single_hop(num_nodes, **scenario_overrides)
    return build_deployment(scenario, batched=batched, seed=seed)


@contextmanager
def capture_batched_packets():
    """Collect every packet a :class:`ConsensusBatcherTransport` builds
    while the block runs (yields the list the packets are appended to)."""
    packets: list[Packet] = []
    original = ConsensusBatcherTransport._make_packet

    def recording(self, group, messages):
        packet = original(self, group, messages)
        packets.append(packet)
        return packet

    ConsensusBatcherTransport._make_packet = recording
    try:
        yield packets
    finally:
        ConsensusBatcherTransport._make_packet = original


def full_instance_packets(packets: list[Packet]) -> dict[str, list[Packet]]:
    """The packets of each group (``rbc_er``, ``aba_sc``, ...: the first
    element of the batcher's group key) that carry as many distinct instances
    as any packet of that group did -- the full Fig. 4-6 layouts of a run."""
    by_group: dict[str, list[Packet]] = {}
    for packet in packets:
        by_group.setdefault(packet.group[0], []).append(packet)
    full = {}
    for name, group in by_group.items():
        widths = [len({message.instance for message in packet.messages})
                  for packet in group]
        widest = max(widths)
        full[name] = [packet for packet, width in zip(group, widths)
                      if width == widest]
    return full


def run_until(deployment: Deployment, predicate: Callable[[], bool],
              timeout: float = 600.0) -> bool:
    """Run the deployment's simulator until ``predicate`` or ``timeout``."""
    return deployment.sim.run_until(predicate, timeout=timeout)


def observer_digest(observer) -> str:
    """SHA-256 over a :class:`~repro.testbed.invariants.RunObserver`'s
    ``(kind, node, domain, digest)`` records -- proposals, then decisions,
    each in recording order -- for the pinned-identity tests."""
    records = [(proposal.kind, proposal.node_id, proposal.domain,
                hashlib.sha256(b"".join(proposal.transactions)).hexdigest())
               for proposal in observer.proposals]
    records += [("decision", decision.node_id, decision.domain,
                 decision.digest) for decision in observer.decisions]
    return hashlib.sha256(repr(records).encode()).hexdigest()
