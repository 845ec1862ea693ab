"""Logical component messages, packets and the packet model of Figs. 4-6.

Consensus components exchange *logical messages* (an ECHO vote for RBC
instance 3, a coin share for ABA round 2, ...).  How logical messages map to
on-air packets is the whole point of ConsensusBatcher:

* the **baseline** transport wraps every logical message in its own packet
  (its own header, NACK field and digital signature) and pays one channel
  access per message;
* the **ConsensusBatcher** transport merges many logical messages into one
  packet following the formats of Figures 4-6 and pays one channel access for
  all of them.

:class:`PacketSizer` is the one packet model: it turns a batch of logical
messages into the byte size of the packet that carries them, using the field
widths of the paper's packet structures, so that airtime and fragmentation
reflect what batching does to packet length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


def tag_scope_chain(tag: Any) -> list:
    """The scope roots ``tag`` belongs to: itself, then each unwrapping of
    its first element (``((root, "aba"), slot)`` -> that tag, ``(root,
    "aba")``, ``root``, ...).  Lets released-scope membership be tested in
    O(nesting depth) set lookups instead of scanning every released root.
    """
    chain = [tag]
    while isinstance(tag, tuple) and tag:
        tag = tag[0]
        chain.append(tag)
    return chain


def tag_in_scope(tag: Any, root: Any) -> bool:
    """Whether ``tag`` belongs to the protocol scope rooted at ``root``.

    Protocol epochs own a *root* tag (HoneyBadger's ``("hb", epoch)``); some
    protocols derive nested sub-tags from it by wrapping it as the first
    element of a tuple (Dumbo's ``(root, "value")`` CBC set, its per-slot coin
    tags ``(root, "aba", slot)``).  Epoch garbage collection in the streaming
    testbed must reclaim the whole scope, so scope membership recurses
    through the first element: ``tag == root`` or ``tag[0]`` is
    (transitively) in scope.
    """
    return root in tag_scope_chain(tag)


#: phases whose payload is a full proposal (potentially spanning packets)
PROPOSAL_PHASES = frozenset({"initial"})
#: phases that carry a threshold signature share (or combined signature)
SHARE_PHASES = frozenset({"done", "echo_sig", "finish", "share"})
#: phases that carry one- or two-bit votes
VOTE_PHASES = frozenset({"echo", "ready", "bval", "aux", "initial_small"})


@dataclass(slots=True)
class ComponentMessage:
    """One logical protocol message emitted by a consensus component.

    Slotted: the batching transport holds every instance's latest message
    until its scope is released (NACK repair may ask for it again), so a
    held message costs only its fields.  Messages and their payloads are
    read-only once sent: one object reaches every receiver, and the vote
    payloads are shared module-level dicts
    (:data:`repro.components.aba_base.VALUE_PAYLOADS`).

    Attributes
    ----------
    kind:
        Component family: ``rbc``, ``rbc_small``, ``prbc``, ``cbc``,
        ``cbc_small``, ``aba_lc``, ``aba_sc``, ``aba_cp``.
    instance:
        Index of the parallel instance (0..N-1), or the ABA slot index.
    phase:
        Component phase (``initial``, ``echo``, ``ready``, ``done``, ``finish``,
        ``bval``, ``aux``, ``share``...).
    sender:
        Originating node id.
    payload:
        Phase-specific content (opaque to the transport).
    payload_bytes:
        Size contribution of the value part of this message.
    share_bytes:
        Size contribution of any threshold share / signature it carries.
    round:
        ABA round number (0 for broadcast components).
    tag:
        Optional extra discriminator (e.g. "value"/"commit" for Dumbo's two
        CBC sets, or an epoch number).
    slot:
        Optional sub-slot discriminator for phases where one node emits
        several distinct messages (e.g. the per-voter echo votes inside
        Bracha's ABA, or the per-recipient blocks of Cachin's RBC); messages
        with different slots occupy different batching slots instead of
        overwriting each other.
    """

    kind: str
    instance: int
    phase: str
    sender: int
    payload: Any
    payload_bytes: int = 0
    share_bytes: int = 0
    round: int = 0
    tag: Any = None
    slot: Any = None

    def slot_key(self) -> tuple:
        """Key identifying the batching slot this message occupies."""
        return (self.kind, self.tag, self.instance, self.phase, self.round,
                self.slot)

    def describe(self) -> str:
        """Human-readable one-liner for logs and debugging."""
        tag = f"/{self.tag}" if self.tag is not None else ""
        return (f"{self.kind}{tag}[{self.instance}].{self.phase}"
                f"(r{self.round}) from {self.sender}")


@dataclass
class Packet:
    """An on-air packet: a batch of logical messages plus packet-level fields."""

    sender: int
    messages: list[ComponentMessage]
    group: tuple = ()
    nack_bits: int = 0
    size_bytes: int = 0
    signature: Any = None
    #: transcript digest cached at signing time; packets are immutable after
    #: finalisation and the same object reaches every simulated receiver, so
    #: the n receivers share one real digest computation (wall clock only --
    #: each receiver's modelled verification cost is still charged)
    digest: Any = None


@dataclass(frozen=True)
class SizeProfile:
    """Field widths used by the packet-size model."""

    header_bytes: int = 10
    hash_bytes: int = 32
    digital_signature_bytes: int = 40
    threshold_share_bytes: int = 21
    #: bytes for multi-hop routing information in the header
    routing_bytes: int = 0

    def nack_bytes(self, bits: int) -> int:
        """Bytes needed for a NACK bitmap of ``bits`` bits."""
        return max(1, math.ceil(bits / 8))


class PacketSizer:
    """Computes packet byte sizes for batched and baseline packets.

    The rules follow Section IV-C and Figures 4-6:

    * every packet carries a header and one public-key digital signature;
    * a baseline packet carries its instance's NACK: one bit per peer
      (``baseline_nack_bits`` = N-1), so N instances cost N(N-1) bits;
    * a batched packet carries one compressed NACK per phase: one bit per
      instance, set while it lacks its quorum (``batched_nack_bits`` = N),
      which is Section IV-C.1's O(N^2) -> O(N) saving;
    * non-INITIAL phases identify each instance by a hash (batched packets
      carry each instance's hash once, however many phases reference it);
    * small-value phases (votes) cost bits, not hashes;
    * INITIAL phases carry the full proposal;
    * share-bearing phases add one threshold share per message.
    """

    def __init__(self, num_nodes: int, profile: Optional[SizeProfile] = None) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        self.profile = profile or SizeProfile()
        #: NACK width of a baseline packet: one bit per peer
        self.baseline_nack_bits = num_nodes - 1
        #: NACK width per phase of a batched packet: one bit per instance
        self.batched_nack_bits = num_nodes

    # ------------------------------------------------------------- baseline
    def baseline_packet_bytes(self, message: ComponentMessage) -> int:
        """Size of a packet carrying a single logical message (no batching)."""
        profile = self.profile
        size = profile.header_bytes + profile.routing_bytes
        size += profile.digital_signature_bytes
        size += profile.nack_bytes(self.baseline_nack_bits)
        if message.phase in PROPOSAL_PHASES:
            size += max(message.payload_bytes, 1)
        elif message.phase in VOTE_PHASES:
            # A vote still has to name the proposal it refers to.
            size += profile.hash_bytes + 1
        else:
            size += profile.hash_bytes
        if message.share_bytes > 0:
            size += message.share_bytes
        elif message.phase in SHARE_PHASES:
            size += profile.threshold_share_bytes
        return size

    # -------------------------------------------------------------- batched
    def batched_packet_bytes(self, messages: Iterable[ComponentMessage],
                             small_values: bool = False) -> int:
        """Size of a ConsensusBatcher packet carrying ``messages``.

        ``small_values`` selects the RBC-small / CBC-small layout (Fig. 5)
        where proposals are encoded in a few bits instead of full hashes.
        """
        messages = list(messages)
        profile = self.profile
        size = profile.header_bytes + profile.routing_bytes
        size += profile.digital_signature_bytes
        if not messages:
            return size
        phases = {message.phase for message in messages}
        # one compressed NACK per phase present in the packet
        size += len(phases) * profile.nack_bytes(self.batched_nack_bits)
        # instance identification: one hash per distinct instance for
        # non-small formats (unless the only phase is INITIAL, which carries
        # the proposal itself)
        instances = {(message.kind, message.tag, message.instance)
                     for message in messages
                     if message.phase not in PROPOSAL_PHASES}
        if not small_values and instances:
            size += profile.hash_bytes * len(instances)
        for message in messages:
            if message.phase in PROPOSAL_PHASES:
                size += max(message.payload_bytes, 1)
            elif message.phase in VOTE_PHASES:
                # one byte per vote message (Figs. 4-6 pack N-bit bitmaps)
                size += 1
            elif message.payload_bytes > 0 and message.phase not in SHARE_PHASES:
                size += message.payload_bytes
            if message.share_bytes > 0:
                size += message.share_bytes
            elif message.phase in SHARE_PHASES:
                size += profile.threshold_share_bytes
        return size
