"""RBC-small: reliable broadcast optimised for tiny proposals (Fig. 5a).

When the broadcast value fits in a couple of bits (the votes inside Bracha's
ABA, or similar), carrying a 32-byte hash per instance wastes bandwidth.  The
RBC-small packet format encodes the proposal itself (2 bits: 0, 1 or bot) in
the INITIAL field and lets ECHO/READY votes refer to the value directly.  The
protocol logic is identical to Bracha's RBC; only the packet accounting (the
``rbc_small`` kind selects the Fig. 5a layout in the packet sizer) and the
value matching differ.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.components.base import Broadcast, ComponentContext, OutputCallback
from repro.components.votes import NOTHING, BrachaVotes
from repro.core.packet import ComponentMessage

#: the "bottom" proposal (no value)
BOT = None


class RbcSmall(Broadcast):
    """One RBC-small instance broadcasting a value from a tiny domain.

    Votes are keyed by the value itself (:data:`BOT` included), so delivery
    needs nothing beyond the READY quorum -- not even the INITIAL.
    """

    kind = "rbc_small"

    def __init__(self, ctx: ComponentContext, instance: int, tag: Any = None,
                 on_output: Optional[OutputCallback] = None,
                 proposer: Optional[int] = None) -> None:
        super().__init__(ctx, instance, tag, on_output, proposer)
        self.value: Any = BOT
        self._have_value = False
        self._votes = BrachaVotes(ctx.quorum, ctx.small_quorum, self._send_ready)

    def close(self) -> None:
        """Also unhook the vote tally, whose READY callback is this
        instance."""
        super().close()
        self._votes.send_ready = None

    # ------------------------------------------------------------------ start
    def propose(self, value: Any) -> None:
        """Broadcast the small value (e.g. 0, 1 or None)."""
        self.send("initial", {"value": value}, payload_bytes=1)

    # ----------------------------------------------------------------- handle
    def handle(self, message: ComponentMessage) -> None:
        """Process an INITIAL / ECHO / READY message."""
        if message.phase == "initial":
            self._on_initial(message)
        elif message.phase == "echo":
            self._votes.echo(message.payload.get("value"), message.sender)
        elif message.phase == "ready":
            self._votes.ready(message.payload.get("value"), message.sender)
            self._try_deliver()

    def _on_initial(self, message: ComponentMessage) -> None:
        if message.sender == self.proposer and not self._have_value:
            self.value = message.payload.get("value")
            self._have_value = True
            self.send("echo", {"value": self.value})

    # ----------------------------------------------------------- state rules
    def _send_ready(self, value: Any) -> None:
        self.send("ready", {"value": value})

    def _try_deliver(self) -> None:
        deliverable = self._votes.deliverable
        if not self.completed and deliverable is not NOTHING:
            self.complete(deliverable)
