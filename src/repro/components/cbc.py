"""Consistent broadcast (CBC) with a threshold-signature certificate.

CBC (Fig. 1b) has three phases: the proposer broadcasts its value (INITIAL);
every node returns a threshold-signature share over the value's hash (ECHO,
an N-to-1 pattern in wired networks); the proposer combines ``2f + 1`` shares
into a certificate and broadcasts it (FINISH).  A node delivers ``(value,
certificate)``; consistency follows because the proposer can obtain a
certificate for at most one value per instance.

Dumbo runs two sets of N parallel CBC instances (CBC_value and CBC_commit,
distinguished here by the ``tag``).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.components.base import Broadcast, ComponentContext, OutputCallback, sha256_hex
from repro.core.packet import ComponentMessage
from repro.crypto.threshold_sig import ThresholdSigError


class Cbc(Broadcast):
    """One CBC instance; ``instance`` doubles as the proposer's node id."""

    kind = "cbc"

    def __init__(self, ctx: ComponentContext, instance: int, tag: Any = None,
                 on_output: Optional[OutputCallback] = None,
                 proposer: Optional[int] = None) -> None:
        super().__init__(ctx, instance, tag, on_output, proposer)
        self.value: Any = None
        self.value_hash: Optional[str] = None
        self.certificate: Any = None
        self._shares: dict[int, Any] = {}
        self._echo_sent = False
        self._finish_sent = False
        self._pending_finish: Optional[ComponentMessage] = None
        self._pending_echo_shares: list[ComponentMessage] = []

    # ------------------------------------------------------------------ start
    def propose(self, value: Any) -> None:
        """Broadcast the value."""
        encoded = self._encode(value)
        self.send("initial", {"value": value}, payload_bytes=len(encoded))

    @staticmethod
    def _encode(value: Any) -> bytes:
        if isinstance(value, bytes):
            return value
        return repr(value).encode()

    def _cert_message(self) -> bytes:
        return f"cbc|{self.tag}|{self.instance}|{self.value_hash}".encode()

    # ----------------------------------------------------------------- handle
    def handle(self, message: ComponentMessage) -> None:
        """Process INITIAL / ECHO (signature share) / FINISH messages."""
        if message.phase == "initial":
            self._on_initial(message)
        elif message.phase == "echo_sig":
            self._on_echo_share(message)
        elif message.phase == "finish":
            self._on_finish(message)

    def _on_initial(self, message: ComponentMessage) -> None:
        if message.sender != self.proposer or self.value is not None:
            return
        value = message.payload.get("value")
        if value is None:
            return
        self.value = value
        self.value_hash = sha256_hex(self._encode(value))
        if not self._echo_sent:
            self._echo_sent = True
            share = self.ctx.suite.tsig_share(self._cert_message())
            if self.ctx.node_id == self.proposer:
                self._shares[self.ctx.node_id] = share
            self.send("echo_sig", {"hash": self.value_hash, "share": share},
                      share_bytes=self.ctx.suite.threshold_share_bytes)
        if self._pending_finish is not None:
            pending, self._pending_finish = self._pending_finish, None
            self._on_finish(pending)
        if self._pending_echo_shares:
            pending_shares, self._pending_echo_shares = self._pending_echo_shares, []
            for pending_share in pending_shares:
                self._on_echo_share(pending_share)
        self._maybe_finish()

    def _on_echo_share(self, message: ComponentMessage) -> None:
        # Only the proposer combines echo shares into the certificate.
        if self.ctx.node_id != self.proposer:
            return
        if message.sender in self._shares:
            return
        if self.value is None:
            # Asynchrony: a peer's echo share can overtake our own INITIAL
            # processing; keep it until the value (and its hash) is known.
            self._pending_echo_shares.append(message)
            return
        share = message.payload.get("share")
        value_hash = message.payload.get("hash")
        if share is None or value_hash is None or value_hash != self.value_hash:
            return
        if message.sender != self.ctx.node_id:
            if not self.ctx.suite.tsig_verify_share(self._cert_message(), share):
                return
        self._shares[message.sender] = share
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if (self.ctx.node_id != self.proposer or self._finish_sent
                or self.value is None or len(self._shares) < self.ctx.quorum):
            return
        try:
            # Every stored echo share was verified on receipt.
            certificate = self.ctx.suite.tsig_combine(self._cert_message(),
                                                      list(self._shares.values()),
                                                      verify=False)
        except ThresholdSigError:
            return
        self._finish_sent = True
        self.certificate = certificate
        self.send("finish", {"hash": self.value_hash, "certificate": certificate},
                  share_bytes=self.ctx.suite.threshold_signature_bytes)
        self.complete((self.value, certificate))

    def _on_finish(self, message: ComponentMessage) -> None:
        if self.completed:
            return
        if self.value is None:
            # FINISH arrived before INITIAL; keep it until the value shows up.
            self._pending_finish = message
            return
        certificate = message.payload.get("certificate")
        value_hash = message.payload.get("hash")
        if certificate is None or value_hash != self.value_hash:
            return
        if not self.ctx.suite.tsig_verify(self._cert_message(), certificate):
            return
        self.certificate = certificate
        self.complete((self.value, certificate))
