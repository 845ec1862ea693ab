"""Shared-coin asynchronous Byzantine agreement -- the paper's ABA-SC.

This is the round-based binary agreement used by HoneyBadgerBFT (Mostefaoui
et al.'s protocol instantiated with a Cachin-Kursawe-Shoup threshold common
coin), matching Fig. 1d: each round has a BVAL phase, an AUX phase and a
SHARE (coin) phase, all N-to-N, for O(N^2) messages per round.

Round ``r`` with estimate ``est``:

1. broadcast ``BVAL(r, est)``;
2. on ``f + 1`` BVALs for a value ``b`` not yet relayed, relay ``BVAL(r, b)``;
   on ``2f + 1`` BVALs, add ``b`` to ``bin_values[r]``;
3. when ``bin_values[r]`` first becomes non-empty, broadcast ``AUX(r, w)``
   for some ``w`` in it;
4. once ``N - f`` AUX messages carry values inside ``bin_values[r]``, release
   a coin share and reveal the round coin ``s``;
5. if the AUX value set is a single value ``b``: adopt ``b`` and decide if
   ``b == s``; otherwise adopt ``s``; proceed to round ``r + 1``.

All parallel instances of the same protocol scope share the round coin
through a single :class:`~repro.components.common_coin.CommonCoinManager`
(the paper's Technical Challenge III resolution for wireless networks);
serial instances (Dumbo) use per-instance managers so coins are never
revealed prematurely.

Input, round advance and DECIDED-notice termination are
:class:`~repro.components.aba_base.RoundBasedAba`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.components.aba_base import VALUE_PAYLOADS, RoundBasedAba, as_bit
from repro.components.base import ComponentContext, OutputCallback
from repro.components.common_coin import CommonCoinManager
from repro.core.packet import ComponentMessage


@dataclass(slots=True)
class _RoundState:
    """Per-round BVAL/AUX bookkeeping.

    Votes are bits: a tally is an int whose bit ``sender`` is set once that
    node's vote counted, and a set of binary values is an int whose bit ``v``
    is set for each value ``v`` in it.
    """

    #: the values this node broadcast BVAL for
    bval_sent: int = 0
    #: per value 0 / 1, the voters of its BVALs
    bval_received: list[int] = field(default_factory=lambda: [0, 0])
    #: the values with ``2f + 1`` BVALs
    bin_values: int = 0
    aux_sent: bool = False
    #: per value 0 / 1, the voters whose (first) AUX carried it
    aux_received: list[int] = field(default_factory=lambda: [0, 0])
    coin_requested: bool = False
    coin_value: Optional[int] = None
    finished: bool = False

    def aux_support(self) -> int:
        """How many AUX senders voted a value inside ``bin_values``."""
        supporters = 0
        for value in (0, 1):
            if self.bin_values >> value & 1:
                supporters |= self.aux_received[value]
        return supporters.bit_count()


class CachinAba(RoundBasedAba):
    """One shared-coin ABA instance deciding a single bit."""

    kind = "aba_sc"
    coin_flavor = "tsig"
    round_state = _RoundState

    def __init__(self, ctx: ComponentContext, instance: int,
                 coin: CommonCoinManager, tag: Any = None,
                 on_output: Optional[OutputCallback] = None,
                 max_rounds: int = 64) -> None:
        super().__init__(ctx, instance, tag, on_output, max_rounds)
        self.coin: Optional[CommonCoinManager] = coin

    def close(self) -> None:
        """Also drop the coin manager, which holds this instance's pending
        coin callbacks."""
        super().close()
        self.coin = None

    # ----------------------------------------------------------------- handle
    def handle(self, message: ComponentMessage) -> None:
        """Process BVAL / AUX / DECIDED messages."""
        if message.phase == "bval":
            self._on_bval(message)
        elif message.phase == "aux":
            self._on_aux(message)
        elif message.phase == "decided":
            self._on_decided(message)

    # ------------------------------------------------------------------ BVAL
    def _broadcast_bval(self, round_number: int, value: int) -> None:
        state = self._rounds[round_number]
        if state.bval_sent >> value & 1:
            return
        state.bval_sent |= 1 << value
        own = 1 << self.ctx.node_id
        newly_counted = not state.bval_received[value] & own
        state.bval_received[value] |= own
        self.send("bval", VALUE_PAYLOADS[value], round_number=round_number,
                  payload_bytes=1, slot=value)
        if newly_counted:
            # Our own vote can complete a quorum; evaluate the transitions
            # here (the local echo of the send is a duplicate and skips them).
            self._after_bval_counted(round_number, state, value)

    def _on_bval(self, message: ComponentMessage) -> None:
        value = as_bit(message.payload.get("value"))
        if value is None:
            return
        round_number = message.round
        state = self._rounds[round_number]
        voter = 1 << message.sender
        if state.bval_received[value] & voter:
            return  # duplicate delivery (NACK repair); state is unchanged
        state.bval_received[value] |= voter
        self._after_bval_counted(round_number, state, value)

    def _after_bval_counted(self, round_number: int, state: _RoundState,
                            value: int) -> None:
        """Quorum transitions after ``value`` gained a BVAL supporter."""
        count = state.bval_received[value].bit_count()
        if count >= self.ctx.small_quorum and not state.bval_sent >> value & 1:
            self._broadcast_bval(round_number, value)
        if count >= self.ctx.quorum and not state.bin_values >> value & 1:
            # AUX entries buffered before their value entered bin_values now
            # count as support (aux_support reads them).
            state.bin_values |= 1 << value
            self._maybe_send_aux(round_number, state)
            # The coin's answer changes only when bin_values or the AUX
            # tally grows, or the round is entered: each of those checks it.
            self._maybe_reveal_coin(round_number, state)

    # ------------------------------------------------------------------- AUX
    def _maybe_send_aux(self, round_number: int, state: _RoundState) -> None:
        if state.aux_sent or not state.bin_values:
            return
        state.aux_sent = True
        value = 0 if state.bin_values & 1 else 1  # the smallest bin value
        self._record_aux(state, self.ctx.node_id, value)
        self.send("aux", VALUE_PAYLOADS[value], round_number=round_number,
                  payload_bytes=1)
        self._maybe_reveal_coin(round_number, state)

    def _on_aux(self, message: ComponentMessage) -> None:
        value = as_bit(message.payload.get("value"))
        if value is None:
            return
        round_number = message.round
        state = self._rounds[round_number]
        if not self._record_aux(state, message.sender, value):
            return  # duplicate delivery; first value per sender counts
        self._maybe_reveal_coin(round_number, state)

    @staticmethod
    def _record_aux(state: _RoundState, sender: int, value: int) -> bool:
        """Count ``sender``'s AUX for ``value`` unless it already sent one."""
        voter = 1 << sender
        received = state.aux_received
        if (received[0] | received[1]) & voter:
            return False
        received[value] |= voter
        return True

    # ------------------------------------------------------------------ coin
    def _maybe_reveal_coin(self, round_number: int, state: _RoundState) -> None:
        if self._halted or round_number != self.round or state.finished:
            return
        if state.coin_requested:
            return
        if state.aux_support() < self.ctx.num_nodes - self.ctx.faults:
            return
        state.coin_requested = True
        self.coin.request(round_number,
                          lambda _rid, coin: self._on_coin(round_number, coin))

    def _on_coin(self, round_number: int, coin_value: int) -> None:
        state = self._rounds[round_number]
        state.coin_value = coin_value
        self._finish_round(round_number, state)

    # ----------------------------------------------------------- round logic
    def _finish_round(self, round_number: int, state: _RoundState) -> None:
        if state.finished or round_number != self.round or self._halted:
            return
        if (state.aux_support() < self.ctx.num_nodes - self.ctx.faults
                or state.coin_value is None):
            return
        state.finished = True
        self.rounds_executed += 1
        coin = state.coin_value
        values = [value for value in (0, 1)
                  if state.bin_values >> value & 1 and state.aux_received[value]]
        if len(values) == 1:
            value = values[0]
            self.estimate = value
            if value == coin:
                self._decide(value)
        else:
            self.estimate = coin if self.decided_value is None else self.decided_value
        self._next_round(round_number)

    def _enter_round(self, round_number: int) -> None:
        self._broadcast_bval(round_number, self.estimate)
        state = self._rounds[round_number]
        self._maybe_send_aux(round_number, state)
        self._maybe_reveal_coin(round_number, state)
