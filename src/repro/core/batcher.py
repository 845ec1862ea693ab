"""The ConsensusBatcher transport and the unbatched baseline transport.

Both transports expose the same interface to consensus components:

* ``send(message)`` broadcasts a logical :class:`~repro.core.packet.ComponentMessage`
  (the component's own copy is delivered locally right away);
* ``register_receiver(callback)`` installs the upper layer that consumes
  delivered logical messages;
* ``activate`` / ``retire`` tell the transport which component instances are
  still running, which drives NACK-style retransmission.

The difference is how logical messages map onto packets and channel accesses:

* :class:`BaselineTransport` -- every logical message becomes its own packet
  with its own header, NACK and digital signature; N parallel components
  therefore compete for the channel N times per phase.  This is the
  "baseline wireless network" column of Table I and the ``*-baseline``
  protocols of Figure 13.
* :class:`ConsensusBatcherTransport` -- messages are written into slots,
  grouped per the packet formats of Figures 4-6 (vertical batching across
  instances, horizontal batching across phases), and each group is flushed as
  a single packet whose content binds when the node wins the channel.  One
  channel access per flush serves every batched instance.

Reliability is NACK-style (Section IV-B.1): there are no per-frame ACKs; a
node that detects a stall (no frames received for a while, while some of its
component instances are still unfinished) re-broadcasts its current state, so
collided or adversarially delayed packets are eventually recovered.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.core.packet import (
    ComponentMessage,
    Packet,
    PacketSizer,
    SizeProfile,
    tag_in_scope,
    tag_scope_chain,
)
from repro.crypto.timing import CryptoSuite
from repro.net.sim import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover - typing-only imports avoid a cycle with repro.net
    from repro.net.node import NetworkNode
    from repro.net.trace import NetworkTrace

ReceiverCallback = Callable[[ComponentMessage], None]

#: component kinds whose proposals are small enough for the Fig. 5 layouts
SMALL_VALUE_KINDS = frozenset({"rbc_small", "cbc_small", "aba_lc", "aba_sc", "aba_cp"})


@dataclass(frozen=True)
class TransportConfig:
    """Tuning knobs shared by both transports."""

    #: how often the stall detector looks for missing progress
    resend_interval_s: float = 4.0
    #: jitter fraction applied to the resend interval (desynchronises nodes)
    resend_jitter: float = 0.5
    #: a node re-broadcasts its state if it has not received any frame for
    #: this long while unfinished instances remain
    stall_threshold_s: float = 3.0
    #: interface name to broadcast on
    interface: Optional[str] = None


class BaseTransport:
    """Common machinery: packet signing, local echo, NACK-driven repair.

    Reliability follows the paper's NACK philosophy (Section IV-B.1): there
    are no per-frame acknowledgements.  Instead, each transport tracks which
    of its component instances are still *unfinished* and when traffic for
    their protocol family (``(kind, tag)``) was last heard.  A family that
    stays quiet while something local is unfinished triggers two actions:

    * the node re-broadcasts its own current state for the unfinished
      instances (so peers missing *our* contributions recover), and
    * the node broadcasts a small NACK request naming the instances it is
      stuck on; any peer holding matching state re-broadcasts it (so we
      recover contributions lost to collisions or adversarial delays).
    """

    NACK_KIND = "nack"

    def __init__(self, node: NetworkNode, num_nodes: int, suite: CryptoSuite,
                 trace: NetworkTrace,
                 config: Optional[TransportConfig] = None,
                 local_id: Optional[int] = None) -> None:
        self.node = node
        self.num_nodes = num_nodes
        #: this node's id inside the consensus domain (equals the global node
        #: id in single-hop deployments; differs inside multi-hop clusters)
        self.local_id = node.node_id if local_id is None else local_id
        self.suite = suite
        self.trace = trace
        self.config = config or TransportConfig()
        self.sizer = PacketSizer(
            num_nodes,
            SizeProfile(digital_signature_bytes=suite.digital_signature_bytes,
                        threshold_share_bytes=suite.threshold_share_bytes))
        self._receiver: Optional[ReceiverCallback] = None
        self._active: set[tuple] = set()
        self._complete: set[tuple] = set()
        self._latest: dict[tuple, ComponentMessage] = {}
        self._family_last_rx: dict[tuple, float] = {}
        #: scope roots reclaimed by release_tag (late-arrival bookkeeping of
        #: a released scope is skipped instead of re-created)
        self._released_tags: set = set()
        self._last_rx_time = 0.0
        self._packets_received = 0
        self.nack_requests_sent = 0
        self.nack_responses_sent = 0
        self._resend_timer = PeriodicTimer(
            node.sim, self.config.resend_interval_s, self._maybe_resend,
            jitter=self.config.resend_jitter)
        self._resend_timer.start()

    # ------------------------------------------------------------------ wiring
    def register_receiver(self, callback: ReceiverCallback) -> None:
        """Install the upper-layer consumer of logical messages."""
        self._receiver = callback

    def activate(self, kind: str, tag: Any, instance: int) -> None:
        """Mark a component instance as running (its slots will be resent)."""
        self._active.add((kind, tag, instance))

    def retire(self, kind: str, tag: Any, instance: int) -> None:
        """Mark a component instance as finished (stop resending for it)."""
        self._active.discard((kind, tag, instance))

    def is_active(self, kind: str, tag: Any, instance: int) -> bool:
        """True while the instance has not been retired."""
        return (kind, tag, instance) in self._active

    def mark_complete(self, kind: str, tag: Any, instance: int) -> None:
        """Note that the local instance finished (stops NACK requests for it)."""
        self._complete.add((kind, tag, instance))

    def mark_incomplete(self, kind: str, tag: Any, instance: int) -> None:
        """Re-open an instance (e.g. the coin manager when a new round starts)."""
        self._complete.discard((kind, tag, instance))

    def shutdown(self) -> None:
        """Stop background timers (end of run)."""
        self._resend_timer.stop()

    def release_tag(self, root: Any) -> None:
        """Forget all per-slot state whose tag is in the scope of ``root``.

        Epoch GC for long (streaming) runs: retired slots would otherwise
        accumulate in ``_active`` / ``_complete`` / ``_latest`` forever.  Must
        only be called once the whole domain has finished the scope -- a peer
        can no longer NACK-request state that was released here.  The root is
        remembered (one small tuple per released epoch) so frames still in
        flight at release time cannot re-create per-family bookkeeping.
        """
        self._released_tags.add(root)
        for slots in (self._active, self._complete):
            for key in [key for key in slots if tag_in_scope(key[1], root)]:
                slots.discard(key)
        for key in [key for key in self._latest
                    if tag_in_scope(key[1], root)]:
            del self._latest[key]
        for family in [family for family in self._family_last_rx
                       if tag_in_scope(family[1], root)]:
            del self._family_last_rx[family]

    # ------------------------------------------------------------------- send
    def send(self, message: ComponentMessage) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _deliver_local(self, message: ComponentMessage) -> None:
        """A node is always a recipient of its own broadcast."""
        if self._receiver is not None:
            self._receiver(message)

    # ---------------------------------------------------------------- receive
    def handle_frame(self, sender: int, payload: Any) -> None:
        """Entry point bound as the node's protocol stack.

        Every packet's signature is checked against its claimed sender, and
        only that sender's own messages are delivered from it.
        """
        node = self.node
        now = node.sim.now
        self._last_rx_time = now
        self._packets_received += 1
        if not isinstance(payload, Packet):
            return
        signer = payload.sender
        if not self.suite.verify(signer, self._packet_digest(payload),
                                 payload.signature):
            return
        receiver = self._receiver
        released = self._released_tags
        nack_kind = self.NACK_KIND
        # A batched packet carries runs of messages of one (kind, tag)
        # family, so the family bookkeeping is fixed per run, not per
        # message.  A scope released by a receiver callback mid-run needs no
        # re-check: release_tag drops the family's entry itself, and the
        # rest of the run stores nothing.
        family_kind = family_tag = stats = None
        for message in payload.messages:
            if message.sender != signer:
                continue  # a signer speaks only for itself
            kind = message.kind
            if kind == nack_kind:
                self._on_nack_request(message)
                continue
            tag = message.tag
            if stats is None or kind != family_kind or tag != family_tag:
                family_kind, family_tag = kind, tag
                if not released or not any(
                        root in released for root in tag_scope_chain(tag)):
                    self._family_last_rx[(kind, tag)] = now
                stats = self.trace.nodes[node.node_id]
            stats.logical_messages_received += 1
            if receiver is not None:
                receiver(message)

    # --------------------------------------------------------------- signing
    @staticmethod
    def _packet_digest(packet: Packet) -> bytes:
        if packet.digest is None:
            descriptor = "|".join(message.describe() for message in packet.messages)
            packet.digest = hashlib.sha256(
                f"{packet.sender}|{packet.group}|{descriptor}".encode()).digest()
        return packet.digest

    def _finalize_packet(self, packet: Packet) -> Packet:
        packet.signature = self.suite.sign(self._packet_digest(packet))
        return packet

    # ------------------------------------------------------------ reliability
    def _unfinished(self) -> dict[tuple, set[int]]:
        """Unfinished instances grouped by protocol family ``(kind, tag)``."""
        stuck: dict[tuple, set[int]] = {}
        # sorted for cross-process determinism (set iteration order of tuples
        # containing strings is salted per process)
        for kind, tag, instance in sorted(self._active, key=repr):
            if (kind, tag, instance) in self._complete:
                continue
            stuck.setdefault((kind, tag), set()).add(instance)
        return stuck

    def _maybe_resend(self) -> None:
        """Per-family stall detector driving the NACK repair cycle."""
        stuck = self._unfinished()
        if not stuck:
            return
        now = self.node.sim.now
        quiet_families = {
            family: instances for family, instances in stuck.items()
            if now - self._family_last_rx.get(family, 0.0) >= self.config.stall_threshold_s}
        if not quiet_families:
            return
        self.node.run_task(lambda: self._repair(quiet_families))

    def _repair(self, quiet_families: dict[tuple, set[int]]) -> None:
        """Re-broadcast our state and ask peers for what we are missing."""
        for family, instances in quiet_families.items():
            self._rebroadcast(*family, instances)
            self._send_nack_request(family, instances)

    def _send_nack_request(self, family: tuple, instances: set[int]) -> None:
        kind, tag = family
        request = ComponentMessage(
            kind=self.NACK_KIND, instance=0, phase="request",
            sender=self.local_id,
            payload={"family_kind": kind, "family_tag": tag,
                     "instances": sorted(instances)},
            payload_bytes=max(1, (self.num_nodes + 7) // 8), tag=tag)
        packet = Packet(sender=self.local_id, messages=[request],
                        group=(self.NACK_KIND, kind, tag))
        packet.size_bytes = self.sizer.baseline_packet_bytes(request)
        self._finalize_packet(packet)
        self.nack_requests_sent += 1
        self.node.broadcast(packet, packet.size_bytes, self.config.interface)

    def _on_nack_request(self, message: ComponentMessage) -> None:
        payload = message.payload or {}
        kind = payload.get("family_kind")
        tag = payload.get("family_tag")
        instances = set(payload.get("instances", []))
        if kind is None:
            return
        self.nack_responses_sent += 1
        self._rebroadcast(kind, tag, instances)

    def _rebroadcast(self, kind: str, tag: Any, instances: set[int]) -> None:
        """Put this node's state for the family's ``instances`` back on the
        air: our own repair and the answer to a peer's NACK request alike."""
        raise NotImplementedError  # pragma: no cover - abstract


class BaselineTransport(BaseTransport):
    """One packet (and one channel access) per logical message."""

    def send(self, message: ComponentMessage) -> None:
        """Broadcast ``message`` in its own packet."""
        self.trace.record_logical_send(self.node.node_id)
        self._latest[message.slot_key()] = message
        self._broadcast_single(message)
        self._deliver_local(message)

    def _broadcast_single(self, message: ComponentMessage) -> None:
        packet = Packet(sender=self.local_id, messages=[message],
                        group=("single",) + message.slot_key())
        packet.size_bytes = self.sizer.baseline_packet_bytes(message)
        self._finalize_packet(packet)
        self.node.broadcast(packet, packet.size_bytes, self.config.interface)

    def _rebroadcast(self, kind: str, tag: Any, instances: set[int]) -> None:
        matching = [message for slot_key, message in self._latest.items()
                    if slot_key[0] == kind and slot_key[1] == tag
                    and slot_key[2] in instances]
        for message in matching:
            self._broadcast_single(message)


class ConsensusBatcherTransport(BaseTransport):
    """Vertical + horizontal batching of parallel consensus components.

    Outgoing logical messages are written into per-group slots; at most one
    frame per group sits in the MAC queue at any time, and its content is
    *materialised when the node actually wins channel access* (late binding
    via the frame builder).  Every update that accumulated while the node was
    contending for the channel therefore rides in the same packet -- one
    channel access serves all batched instances, which is exactly the saving
    ConsensusBatcher is designed for.
    """

    def __init__(self, node: NetworkNode, num_nodes: int, suite: CryptoSuite,
                 trace: NetworkTrace,
                 config: Optional[TransportConfig] = None,
                 local_id: Optional[int] = None) -> None:
        super().__init__(node, num_nodes, suite, trace, config, local_id)
        self._groups: dict[tuple, dict[tuple, ComponentMessage]] = {}
        self._dirty: dict[tuple, set[tuple]] = {}
        self._queued_groups: set[tuple] = set()

    # -------------------------------------------------------------- grouping
    @staticmethod
    def group_of(message: ComponentMessage) -> tuple:
        """Which packet group (Figs. 4-6) a message belongs to."""
        kind, tag, phase = message.kind, message.tag, message.phase
        if kind in ("rbc", "prbc"):
            if phase == "initial":
                return ("rbc_init", tag)
            if phase == "done":
                return ("prbc_done", tag)
            return ("rbc_er", tag)
        if kind == "cbc":
            if phase == "initial":
                return ("cbc_init", tag)
            return ("cbc_ef", tag)
        if kind in ("rbc_small", "cbc_small"):
            return (kind, tag)
        if kind in ("aba_lc", "aba_sc", "aba_cp", "coin"):
            return (kind, tag, message.round)
        # anything else (e.g. ACS-level decryption shares) batches per kind+phase
        return (kind, tag, phase)

    # ------------------------------------------------------------------- send
    def send(self, message: ComponentMessage) -> None:
        """Record the message in its batching slot and ensure a frame is queued."""
        self.trace.record_logical_send(self.node.node_id)
        group = self.group_of(message)
        key = message.slot_key()
        self._groups.setdefault(group, {})[key] = message
        self._dirty.setdefault(group, set()).add(key)
        self._ensure_queued(group)
        self._deliver_local(message)

    def _ensure_queued(self, group: tuple) -> None:
        """Queue (at most) one frame for the group; content binds at TX time."""
        if group in self._queued_groups:
            return
        self._queued_groups.add(group)
        self.node.broadcast_deferred(lambda g=group: self._build_packet(g),
                                     self.config.interface)

    # ----------------------------------------------------------- packet build
    def _collect(self, group: tuple,
                 keys: Optional[set[tuple]] = None) -> list[ComponentMessage]:
        slots = self._groups.get(group, {})
        if keys is None:
            selected = list(slots.values())
        else:
            # deterministic packet contents regardless of set iteration order
            selected = [slots[key] for key in sorted(keys, key=repr)
                        if key in slots]
        return [message for message in selected
                if (message.kind, message.tag, message.instance) in self._active]

    def _build_packet(self, group: tuple) -> Optional[tuple[Packet, int]]:
        """Frame builder: called by the MAC right before transmission."""
        self._queued_groups.discard(group)
        # pop rather than reset-in-place: a group released by epoch GC while
        # its frame was queued must not be re-created as an empty entry
        # (later sends setdefault the key back for live groups)
        dirty = self._dirty.pop(group, set())
        messages = self._collect(group, dirty)
        if not messages:
            return None
        packet = self._make_packet(group, messages)
        return packet, packet.size_bytes

    def _make_packet(self, group: tuple,
                     messages: list[ComponentMessage]) -> Packet:
        small = messages[0].kind in SMALL_VALUE_KINDS
        packet = Packet(sender=self.local_id, messages=list(messages),
                        group=group)
        packet.size_bytes = self.sizer.batched_packet_bytes(messages,
                                                            small_values=small)
        self._finalize_packet(packet)
        return packet

    # ----------------------------------------------------------- housekeeping
    def release_tag(self, root: Any) -> None:
        """Epoch GC: also drop the batching slots of the released scope."""
        super().release_tag(root)
        stale_groups = [group for group in self._groups
                        if tag_in_scope(group[1], root)]
        for group in stale_groups:
            del self._groups[group]
            self._dirty.pop(group, None)
            # A queued-but-unsent frame for the group materialises empty (its
            # slots are gone and _collect filters inactive instances), so the
            # deferred builder is harmless; just forget the queued marker.
            self._queued_groups.discard(group)

    def _rebroadcast(self, kind: str, tag: Any, instances: set[int]) -> None:
        for group, slots in self._groups.items():
            matching = {key for key, message in slots.items()
                        if message.kind == kind and message.tag == tag
                        and message.instance in instances}
            if matching:
                self._dirty.setdefault(group, set()).update(matching)
                self._ensure_queued(group)
