"""What every round-based binary agreement here shares.

:class:`~repro.components.aba_bracha.BrachaAba` (local coin) and
:class:`~repro.components.aba_cachin.CachinAba` (shared coin, hence BEAT's
:class:`~repro.components.aba_coinflip.CoinFlipAba`) differ in what a round
*is*; they agree on how an instance is given its input, how it moves to the
next round, and how it terminates.  Termination is the DECIDED-notice helper
standard for round-based ABA: a node that decides broadcasts DECIDED and
keeps running rounds; ``f + 1`` matching notices let a lagging node decide
too; a decided node stops once it has seen ``2f + 1`` of them, because then
every honest node is guaranteed to see ``f + 1``.

Voters are counted as bits: a tally is an int whose bit ``sender`` is set
once that node's vote counted (``bit_count()`` is the tally).  Only
authenticated ids -- a delivered message's ``sender``, the node's own id --
become shift counts; a peer's payload value is a dict key, or a bit only
through :func:`as_bit`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Optional

from repro.components.base import Component, ComponentContext, OutputCallback
from repro.core.packet import ComponentMessage


#: the payload of every one-bit vote sent (``CachinAba``'s BVAL and AUX, a
#: DECIDED notice), indexed by the bit.  Shared, never copied: a payload is
#: read-only once sent -- the transport holds it for NACK repair and one
#: object reaches every receiver -- so no send allocates a dict.
VALUE_PAYLOADS = ({"value": 0}, {"value": 1})


def as_bit(value: Any) -> Optional[int]:
    """The bit ``value`` equals (``True`` and ``1.0`` are ``1``), or ``None``
    if it equals neither 0 nor 1."""
    if value not in (0, 1):
        return None
    return 1 if value == 1 else 0


class RoundBasedAba(Component):
    """Input, round advance and DECIDED termination of one ABA instance.

    Subclasses name their per-round record (:attr:`round_state`), implement
    :meth:`_enter_round` and route ``decided`` messages to
    :meth:`_on_decided`; when a round ends they set :attr:`estimate`, call
    :meth:`_decide` if the round decided, then :meth:`_next_round`.
    """

    round_state: type
    #: the :class:`CommonCoinManager` flavor the rounds draw on, if any
    coin_flavor: Optional[str] = None

    def __init__(self, ctx: ComponentContext, instance: int, tag: Any = None,
                 on_output: Optional[OutputCallback] = None,
                 max_rounds: int = 64) -> None:
        super().__init__(ctx, instance, tag, on_output)
        self.max_rounds = max_rounds
        self.estimate: Optional[int] = None
        self.round = 0
        self.decided_value: Optional[int] = None
        self.rounds_executed = 0
        # created on first lookup (messages for a round can arrive early)
        self._rounds: dict[int, Any] = defaultdict(self.round_state)
        #: per decided value, the voters of its DECIDED notices
        self._decided_notices: dict[Any, int] = {}
        self._decided_sent = False
        self._started = False
        self._halted = False

    def close(self) -> None:
        """Also drop the round records (a local-coin round holds vote
        tallies whose READY callbacks are this instance)."""
        super().close()
        self._rounds.clear()

    # ------------------------------------------------------------------ start
    def start(self, value: int) -> None:
        """Provide this node's binary input and start round 0."""
        if self._started:
            return
        bit = as_bit(value)
        if bit is None:
            raise ValueError(f"ABA input must be 0 or 1, got {value!r}")
        self._started = True
        self.estimate = bit
        self._enter_round(self.round)

    # ----------------------------------------------------------------- rounds
    def _enter_round(self, round_number: int) -> None:  # pragma: no cover - abstract
        """Broadcast the round's first vote for :attr:`estimate`, then
        re-examine whatever arrived for the round before it was entered."""
        raise NotImplementedError

    def _next_round(self, round_number: int) -> None:
        """Move past ``round_number`` unless the instance has halted."""
        if self._halted:
            return
        next_round = round_number + 1
        if next_round >= self.max_rounds:
            # Safety net against pathological schedules in bounded experiments.
            self._decide(self.estimate if self.estimate in (0, 1) else 0)
            self._halted = True
            return
        self.round = next_round
        # Slots of earlier rounds are intentionally kept in the transport so
        # that NACK repair can still serve laggards that are stuck in an older
        # round; dirty-only packet building keeps them off the air otherwise.
        self._enter_round(next_round)

    # ----------------------------------------------------------------- decide
    def _decide(self, value: int) -> None:
        if self.decided_value is None:
            self.decided_value = value
        if not self._decided_sent:
            self._decided_sent = True
            self._count_notice(value, self.ctx.node_id)
            self.send("decided", VALUE_PAYLOADS[value], payload_bytes=1)
        self.complete(value)
        self._maybe_halt()

    def _on_decided(self, message: ComponentMessage) -> None:
        value = as_bit(message.payload.get("value"))
        if value is None:
            return
        if (self._count_notice(value, message.sender) >= self.ctx.small_quorum
                and not self.completed):
            self.estimate = value
            self._decide(value)
        self._maybe_halt()

    def _count_notice(self, value: Any, sender: int) -> int:
        """Count ``sender``'s DECIDED notice for ``value``; return how many
        nodes sent one for it."""
        notices = self._decided_notices[value] = (
            self._decided_notices.get(value, 0) | 1 << sender)
        return notices.bit_count()

    def _maybe_halt(self) -> None:
        """Stop running rounds once enough nodes are known to have decided."""
        if self.decided_value is None:
            return
        notices = self._decided_notices.get(self.decided_value, 0).bit_count()
        if notices >= self.ctx.quorum:
            self._halted = True
