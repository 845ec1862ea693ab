"""Provable reliable broadcast (PRBC) -- Dumbo's broadcast primitive.

PRBC extends RBC with a DONE phase (Fig. 1a, blue lines): once a node
delivers the RBC value, it broadcasts a threshold-signature share over the
instance id; ``2f + 1`` shares combine into a succinct *proof* that at least
``f + 1`` honest nodes hold the proposal.  Dumbo uses these proofs to decide
which proposals can safely be referenced by later stages without shipping the
proposals themselves.

Output: ``(value, proof)`` where ``proof`` is the combined threshold
signature (or ``None`` until it is available).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.components.base import ComponentContext, OutputCallback
from repro.components.rbc import BrachaRbc
from repro.core.packet import ComponentMessage
from repro.crypto.threshold_sig import ThresholdSigError


class Prbc(BrachaRbc):
    """One PRBC instance: Bracha's RBC whose delivery opens the DONE phase."""

    kind = "prbc"

    def __init__(self, ctx: ComponentContext, instance: int, tag: Any = None,
                 on_output: Optional[OutputCallback] = None,
                 proposer: Optional[int] = None) -> None:
        super().__init__(ctx, instance, tag, on_output, proposer)
        self.proof: Any = None
        self._rbc_delivered = False
        self._done_shares: dict[int, Any] = {}
        #: shares whose proof checked out (each verified at most once)
        self._valid_done_shares: dict[int, Any] = {}

    # ----------------------------------------------------------------- handle
    def handle(self, message: ComponentMessage) -> None:
        """Process INITIAL / ECHO / READY / DONE messages."""
        if message.phase == "initial":
            self._on_initial(message)
        elif message.phase == "echo":
            self._on_echo(message)
        elif message.phase == "ready":
            self._on_ready(message)
        elif message.phase == "done":
            self._on_done(message)

    # ------------------------------------------------------------- DONE phase
    def _proof_message(self) -> bytes:
        return f"prbc|{self.tag}|{self.instance}|{self.value_hash}".encode()

    def _try_deliver(self) -> None:
        """RBC delivery: broadcast our DONE share instead of completing."""
        if self._rbc_delivered or self.value_hash != self._votes.deliverable:
            return
        self._rbc_delivered = True
        share = self.ctx.suite.tsig_share(self._proof_message())
        self._done_shares[self.ctx.node_id] = share
        self.send("done", {"share": share, "hash": self.value_hash},
                  share_bytes=self.ctx.suite.threshold_share_bytes)
        # Shares buffered before RBC delivery could not be verified (their
        # proof message depends on the delivered value hash); ingest them now.
        for sender, share in list(self._done_shares.items()):
            self._ingest_done_share(sender, share)
        self._maybe_complete()

    def _on_done(self, message: ComponentMessage) -> None:
        share = message.payload.get("share")
        if share is None or message.sender in self._done_shares:
            return
        self._done_shares[message.sender] = share
        if self._rbc_delivered:
            self._ingest_done_share(message.sender, share)
            self._maybe_complete()

    def _ingest_done_share(self, sender: int, share: Any) -> None:
        """Verify one DONE share at most once (the value hash is known).

        The previous implementation re-verified every buffered share on every
        DONE arrival -- quadratic in n per instance, cubic across the n
        parallel instances Dumbo runs.
        """
        if sender in self._valid_done_shares:
            return
        if sender == self.ctx.node_id \
                or self.ctx.suite.tsig_verify_share(self._proof_message(), share):
            self._valid_done_shares[sender] = share

    def _maybe_complete(self) -> None:
        if self.completed or not self._rbc_delivered or self.value is None:
            return
        if len(self._valid_done_shares) < self.ctx.quorum:
            return
        try:
            # Every share in the set already passed per-share verification,
            # so the combine can skip its (redundant) batch re-verification.
            self.proof = self.ctx.suite.tsig_combine(
                self._proof_message(), list(self._valid_done_shares.values()),
                verify=False)
        except ThresholdSigError:
            return
        self.complete((self.value, self.proof))
