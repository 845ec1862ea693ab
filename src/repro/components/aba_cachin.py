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

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.components.aba_base import RoundBasedAba
from repro.components.base import ComponentContext, OutputCallback
from repro.components.common_coin import CommonCoinManager
from repro.core.packet import ComponentMessage


@dataclass
class _RoundState:
    """Per-round BVAL/AUX bookkeeping."""

    bval_sent: set[int] = field(default_factory=set)
    bval_received: dict[int, set[int]] = field(
        default_factory=lambda: defaultdict(set))
    bin_values: set[int] = field(default_factory=set)
    aux_sent: bool = False
    aux_received: dict[int, int] = field(default_factory=dict)
    #: number of AUX senders whose value is in bin_values, maintained
    #: incrementally (recounted when bin_values grows) -- recomputing the
    #: support set per message is O(n) and made large-n runs O(n^4)
    support_count: int = 0
    coin_requested: bool = False
    coin_value: Optional[int] = None
    finished: bool = False


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
        if value in state.bval_sent:
            return
        state.bval_sent.add(value)
        received = state.bval_received[value]
        newly_counted = self.ctx.node_id not in received
        received.add(self.ctx.node_id)
        self.send("bval", {"value": value}, round_number=round_number,
                  payload_bytes=1, slot=value)
        if newly_counted:
            # Our own vote can complete a quorum; evaluate the transitions
            # here (the local echo of the send is a duplicate and skips them).
            self._after_bval_counted(round_number, state, value)

    def _on_bval(self, message: ComponentMessage) -> None:
        value = message.payload.get("value")
        if value not in (0, 1):
            return
        round_number = message.round
        state = self._rounds[round_number]
        received = state.bval_received[value]
        if message.sender in received:
            return  # duplicate delivery (NACK repair); state is unchanged
        received.add(message.sender)
        self._after_bval_counted(round_number, state, value)

    def _after_bval_counted(self, round_number: int, state: _RoundState,
                            value: int) -> None:
        """Quorum transitions after ``value`` gained a BVAL supporter."""
        count = len(state.bval_received[value])
        if count >= self.ctx.small_quorum and value not in state.bval_sent:
            self._broadcast_bval(round_number, value)
        if count >= self.ctx.quorum and value not in state.bin_values:
            state.bin_values.add(value)
            # AUX entries buffered before their value entered bin_values now
            # count as support.
            state.support_count += sum(
                1 for aux_value in state.aux_received.values()
                if aux_value == value)
            self._maybe_send_aux(round_number, state)
        self._maybe_reveal_coin(round_number, state)

    # ------------------------------------------------------------------- AUX
    def _maybe_send_aux(self, round_number: int, state: _RoundState) -> None:
        if state.aux_sent or not state.bin_values:
            return
        state.aux_sent = True
        value = next(iter(sorted(state.bin_values)))
        self._record_aux(state, self.ctx.node_id, value)
        self.send("aux", {"value": value}, round_number=round_number,
                  payload_bytes=1)
        self._maybe_reveal_coin(round_number, state)

    def _on_aux(self, message: ComponentMessage) -> None:
        value = message.payload.get("value")
        if value not in (0, 1):
            return
        round_number = message.round
        state = self._rounds[round_number]
        if message.sender in state.aux_received:
            return  # duplicate delivery; first value per sender counts
        self._record_aux(state, message.sender, value)
        self._maybe_reveal_coin(round_number, state)

    @staticmethod
    def _record_aux(state: _RoundState, sender: int, value: int) -> None:
        if sender in state.aux_received:
            return
        state.aux_received[sender] = value
        if value in state.bin_values:
            state.support_count += 1

    # ------------------------------------------------------------------ coin
    def _maybe_reveal_coin(self, round_number: int, state: _RoundState) -> None:
        if self._halted or round_number != self.round or state.finished:
            return
        if state.coin_requested:
            return
        if state.support_count < self.ctx.num_nodes - self.ctx.faults:
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
        if (state.support_count < self.ctx.num_nodes - self.ctx.faults
                or state.coin_value is None):
            return
        state.finished = True
        self.rounds_executed += 1
        coin = state.coin_value
        values = {value for value in state.aux_received.values()
                  if value in state.bin_values}
        if len(values) == 1:
            value = next(iter(values))
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
