"""Shared protocol plumbing: configuration, batch encoding, the base class.

A consensus protocol instance lives on one node, is identified by an epoch
``tag``, consumes a proposal (a batch of transactions) via :meth:`propose`,
exchanges component messages through the node's transport/router, and
eventually calls its ``on_decide`` callback with the agreed block (a list of
transactions in a canonical order).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.components.base import ComponentContext, ComponentRouter

DecideCallback = Callable[[list[bytes]], None]

#: canonical names accepted by the testbed harness
PROTOCOL_NAMES = (
    "honeybadger-sc",
    "honeybadger-lc",
    "beat",
    "dumbo-sc",
    "dumbo-lc",
)


class ProtocolName:
    """Parsing/validation helpers for protocol names."""

    @staticmethod
    def validate(name: str) -> str:
        """Return the canonical name or raise ``ValueError``."""
        canonical = name.strip().lower()
        if canonical not in PROTOCOL_NAMES:
            raise ValueError(
                f"unknown protocol {name!r}; known: {PROTOCOL_NAMES}")
        return canonical

    @staticmethod
    def family(name: str) -> str:
        """The protocol family: honeybadger, beat or dumbo."""
        return ProtocolName.validate(name).split("-")[0]

    @staticmethod
    def coin(name: str) -> str:
        """The coin type: ``sc`` (shared), ``lc`` (local) or ``cp`` (coin flip)."""
        canonical = ProtocolName.validate(name)
        if canonical == "beat":
            return "cp"
        return canonical.split("-")[1]


@dataclass(frozen=True)
class ConsensusConfig:
    """Per-run protocol configuration."""

    #: epoch identifier (becomes the component tag)
    epoch: Any = 0
    #: whether proposals are threshold-encrypted (HoneyBadgerBFT / BEAT)
    use_threshold_encryption: bool = True


# --------------------------------------------------------------------------
# Transaction batch encoding: a deliberately simple, dependency-free format.
# --------------------------------------------------------------------------

def encode_batch(transactions: list[bytes]) -> bytes:
    """Serialise a list of transactions into a single proposal payload."""
    parts = [len(transactions).to_bytes(4, "big")]
    for transaction in transactions:
        parts.append(len(transaction).to_bytes(4, "big"))
        parts.append(transaction)
    return b"".join(parts)


def decode_batch(payload: bytes) -> list[bytes]:
    """Inverse of :func:`encode_batch`."""
    if len(payload) < 4:
        raise ValueError("truncated batch payload")
    count = int.from_bytes(payload[:4], "big")
    offset = 4
    transactions = []
    for _ in range(count):
        if offset + 4 > len(payload):
            raise ValueError("truncated batch payload")
        length = int.from_bytes(payload[offset:offset + 4], "big")
        offset += 4
        if offset + length > len(payload):
            raise ValueError("truncated batch payload")
        transactions.append(payload[offset:offset + length])
        offset += length
    return transactions


def dedupe(transactions: list[bytes]) -> list[bytes]:
    """The canonical block order: sorted, duplicates dropped."""
    seen: set[bytes] = set()
    unique = []
    for transaction in sorted(transactions):
        if transaction not in seen:
            seen.add(transaction)
            unique.append(transaction)
    return unique


def block_digest(block: list[bytes]) -> str:
    """Canonical digest of a decided block (for agreement checks)."""
    digest = hashlib.sha256()
    for transaction in block:
        digest.update(len(transaction).to_bytes(4, "big"))
        digest.update(transaction)
    return digest.hexdigest()


@dataclass(frozen=True)
class InvariantWitness:
    """One node's decision evidence for the conformance checkers.

    The harness collects a witness per honest node after a run and feeds it
    to the :class:`repro.testbed.invariants.RunObserver`, which checks
    agreement (equal digests), total order (equal block sequences) and
    validity (committed transactions trace back to proposals) across nodes.
    """

    node_id: int
    decided: bool
    digest: Optional[str]
    decide_time: Optional[float]
    block: Optional[tuple[bytes, ...]]


class ConsensusProtocol:
    """Base class for the per-node protocol instances."""

    name = "abstract"

    def __init__(self, ctx: ComponentContext, router: ComponentRouter,
                 config: Optional[ConsensusConfig] = None,
                 on_decide: Optional[DecideCallback] = None) -> None:
        self.ctx = ctx
        self.router = router
        self.config = config or ConsensusConfig()
        self.on_decide = on_decide
        self.decided = False
        self.block: Optional[list[bytes]] = None
        self.decide_time: Optional[float] = None
        self.started_at: Optional[float] = None

    # ------------------------------------------------------------------- API
    def propose(self, transactions: list[bytes]) -> None:  # pragma: no cover
        """Provide this node's transaction batch and start the protocol."""
        raise NotImplementedError

    # ----------------------------------------------------- fault-injection API
    def inject_conflicting_proposal(self, transactions: list[bytes]) -> bool:
        """Byzantine hook: open this node's broadcast with a *second*,
        conflicting proposal (the equivocation attack).

        Called by the testbed on nodes assigned the ``equivocating-proposer``
        strategy, after the regular :meth:`propose`.  Protocols that support
        the attack override this and return True; the base implementation
        reports that the attack is not wired for this protocol.
        """
        return False

    # ------------------------------------------------------------ pipelining
    @property
    def pipeline_ready(self) -> bool:
        """Whether the *next* epoch may safely start disseminating.

        Streaming pipelining must not be able to change this epoch's decided
        block: the next epoch's radio traffic perturbs message timing on the
        shared channel, so this property must only turn True once the
        instance's remaining work is **content-deterministic** (timing can
        still move the decide time, never the decided bytes).  The base
        implementation is maximally conservative -- ready only once decided.
        HoneyBadger-style protocols override it to signal readiness when the
        common subset is locked (all ABAs decided), which is what lets epoch
        ``e + 1``'s RBC dissemination overlap epoch ``e``'s threshold
        decryption.
        """
        return self.decided

    # ------------------------------------------------------------- epoch GC
    def release(self) -> None:
        """Reclaim every per-epoch resource this instance allocated.

        Drops the instance's components, kind handlers and buffered messages
        from the router and its batching/reliability slots from the
        transport, keyed by the protocol's root ``tag`` (nested sub-tags such
        as Dumbo's CBC sets are covered via
        :func:`repro.core.packet.tag_in_scope`).  The streaming testbed calls
        this once *every* honest node of the domain has decided the epoch --
        after that point no peer can legitimately NACK-request the epoch's
        state, so memory stays O(pipeline window), not O(epochs run).
        The instance itself keeps its decision fields (``decided``, ``block``,
        ``decide_time``) so late metric reads stay valid.
        """
        tag = getattr(self, "tag", None)
        if tag is None:
            return
        self.router.release_tag(tag)
        self.ctx.transport.release_tag(tag)

    def close(self) -> None:
        """Drop the callback state (called by the router when the
        instance's scope is released or the router closes; see
        :meth:`ComponentRouter.adopt`).  The decision fields stay readable."""
        self.on_decide = None

    # -------------------------------------------------------- invariant hooks
    def witness(self) -> InvariantWitness:
        """This node's decision evidence for the conformance checkers."""
        return InvariantWitness(
            node_id=self.ctx.node_id, decided=self.decided,
            digest=block_digest(self.block) if self.block is not None else None,
            decide_time=self.decide_time,
            block=tuple(self.block) if self.block is not None else None)

    # ----------------------------------------------------------------- decide
    def _finish(self, block: list[bytes]) -> None:
        if self.decided:
            return
        self.decided = True
        self.block = block
        self.decide_time = self.ctx.sim.now
        self.ctx.sim.milestones += 1
        if self.on_decide is not None:
            self.on_decide(block)
