"""Bracha's reliable broadcast (RBC).

The broadcast protocol used throughout the paper (Section III-B.1): the
proposer broadcasts its proposal in the INITIAL phase; every node that
receives it broadcasts an ECHO vote identifying the proposal by its hash; on
``2f + 1`` echoes a node broadcasts READY (or on ``f + 1`` readies, the
amplification rule); on ``2f + 1`` readies a node delivers the proposal.

Guarantees (with ``N = 3f + 1`` and at most ``f`` Byzantine nodes):

* *validity* -- if the proposer is honest, every honest node delivers its
  proposal;
* *agreement* -- no two honest nodes deliver different proposals for the same
  instance;
* *totality* -- if one honest node delivers, every honest node eventually
  delivers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Optional

from repro.components.base import Component, ComponentContext, OutputCallback, sha256_hex
from repro.core.packet import ComponentMessage


class BrachaRbc(Component):
    """One RBC instance; ``instance`` doubles as the proposer's node id."""

    kind = "rbc"

    def __init__(self, ctx: ComponentContext, instance: int, tag: Any = None,
                 on_output: Optional[OutputCallback] = None,
                 proposer: Optional[int] = None) -> None:
        super().__init__(ctx, instance, tag, on_output)
        self.proposer = instance if proposer is None else proposer
        self.value: Optional[bytes] = None
        self.value_hash: Optional[str] = None
        self._echoes: dict[str, set[int]] = defaultdict(set)
        self._readies: dict[str, set[int]] = defaultdict(set)
        self._echo_sent = False
        self._ready_sent = False
        self._pending_deliver_hash: Optional[str] = None

    # ------------------------------------------------------------------ start
    def start(self, value: bytes) -> None:
        """Proposer entry point: broadcast the proposal."""
        if self.ctx.node_id != self.proposer:
            raise ValueError(
                f"node {self.ctx.node_id} is not the proposer of {self.describe()}")
        self.send("initial", {"value": value}, payload_bytes=len(value))

    # ----------------------------------------------------------------- handle
    def handle(self, message: ComponentMessage) -> None:
        """Process an INITIAL / ECHO / READY message."""
        if message.phase == "initial":
            self._on_initial(message)
        elif message.phase == "echo":
            self._on_echo(message)
        elif message.phase == "ready":
            self._on_ready(message)

    # ---------------------------------------------------------------- phases
    def _on_initial(self, message: ComponentMessage) -> None:
        if message.sender != self.proposer:
            return  # only the proposer may open the instance
        value = message.payload.get("value")
        if value is None or self.value is not None:
            self._try_deliver()
            return
        self.value = value
        self.value_hash = sha256_hex(value)
        if not self._echo_sent:
            self._echo_sent = True
            self.send("echo", {"hash": self.value_hash})
        self._check_quorums()
        self._try_deliver()

    def _on_echo(self, message: ComponentMessage) -> None:
        value_hash = message.payload.get("hash")
        if value_hash is None:
            return
        self._echoes[value_hash].add(message.sender)
        if not self._ready_sent:  # echoes only ever trigger READY
            self._check_quorums()

    def _on_ready(self, message: ComponentMessage) -> None:
        value_hash = message.payload.get("hash")
        if value_hash is None:
            return
        self._readies[value_hash].add(message.sender)
        if not self.completed:  # delivered implies READY sent: nothing left
            self._check_quorums()

    # ----------------------------------------------------------- state rules
    def _check_quorums(self) -> None:
        quorum = self.ctx.quorum
        if not self._ready_sent:
            for value_hash, echoers in self._echoes.items():
                if len(echoers) >= quorum and not self._ready_sent:
                    self._send_ready(value_hash)
        for value_hash, readiers in self._readies.items():
            if len(readiers) >= self.ctx.small_quorum and not self._ready_sent:
                self._send_ready(value_hash)
            if len(readiers) >= quorum:
                self._pending_deliver_hash = value_hash
        if self._pending_deliver_hash is not None:
            self._try_deliver()

    def _send_ready(self, value_hash: str) -> None:
        self._ready_sent = True
        self.send("ready", {"hash": value_hash})

    def _try_deliver(self) -> None:
        if self.completed or self._pending_deliver_hash is None:
            return
        if self.value is not None and self.value_hash == self._pending_deliver_hash:
            self.complete(self.value)
