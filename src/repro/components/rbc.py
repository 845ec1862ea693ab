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

from typing import Any, Optional

from repro.components.base import Broadcast, ComponentContext, OutputCallback, sha256_hex
from repro.components.votes import BrachaVotes
from repro.core.packet import ComponentMessage


class BrachaRbc(Broadcast):
    """One RBC instance; ``instance`` doubles as the proposer's node id.

    The ECHO / READY rule lives in :class:`~repro.components.votes.BrachaVotes`
    (keyed by proposal hash); what is RBC's own is that delivery also needs
    the INITIAL whose hash matches the deliverable one.
    """

    kind = "rbc"

    def __init__(self, ctx: ComponentContext, instance: int, tag: Any = None,
                 on_output: Optional[OutputCallback] = None,
                 proposer: Optional[int] = None) -> None:
        super().__init__(ctx, instance, tag, on_output, proposer)
        self.value: Optional[bytes] = None
        self.value_hash: Optional[str] = None
        self._votes = BrachaVotes(ctx.quorum, ctx.small_quorum, self._send_ready)

    def close(self) -> None:
        """Also unhook the vote tally, whose READY callback is this
        instance."""
        super().close()
        self._votes.send_ready = None

    # ------------------------------------------------------------------ start
    def propose(self, value: bytes) -> None:
        """Broadcast the proposal."""
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
        if value is not None and self.value is None:
            self.value = value
            self.value_hash = sha256_hex(value)
            self.send("echo", {"hash": self.value_hash})
        self._try_deliver()

    def _on_echo(self, message: ComponentMessage) -> None:
        value_hash = message.payload.get("hash")
        if value_hash is not None:
            self._votes.echo(value_hash, message.sender)

    def _on_ready(self, message: ComponentMessage) -> None:
        value_hash = message.payload.get("hash")
        if value_hash is None:
            return
        self._votes.ready(value_hash, message.sender)
        self._try_deliver()

    # ----------------------------------------------------------- state rules
    def _send_ready(self, value_hash: str) -> None:
        self.send("ready", {"hash": value_hash})

    def _try_deliver(self) -> None:
        # no INITIAL yet: value_hash is None, which no deliverable key equals
        if not self.completed and self.value_hash == self._votes.deliverable:
            self.complete(self.value)
