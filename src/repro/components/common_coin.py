"""The shared common coin used by ABA-SC and ABA-CP.

Each round of a shared-coin ABA needs one bit of common randomness that the
adversary cannot predict before ``f + 1`` honest nodes have released their
shares.  The coin manager:

* broadcasts this node's coin share for a round when the round first asks for
  the coin (never earlier -- Section V-A stresses that premature share release
  for later serial ABAs must be prevented);
* collects and verifies other nodes' shares;
* combines ``f + 1`` valid shares into the coin value and hands it to every
  subscriber.

Within one protocol instance (one ``tag``), all parallel ABA instances of the
same round share the same coin, which is safe on a broadcast wireless channel
(the paper's Technical Challenge III) and is exactly how the packet format of
Fig. 6b carries a single Share field for k batched instances.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.components.base import ComponentContext
from repro.core.packet import ComponentMessage
from repro.crypto.timing import COIN_FLAVORS

CoinCallback = Callable[[int, int], None]  # (round, coin_value)


@dataclass
class _RoundState:
    requested: bool = False
    share_sent: bool = False
    shares: dict[int, Any] = field(default_factory=dict)
    value: Optional[int] = None
    callbacks: list[CoinCallback] = field(default_factory=list)


class CommonCoinManager:
    """Per-node manager of the round coins for one protocol instance."""

    kind = "coin"

    def __init__(self, ctx: ComponentContext, tag: Any, flavor: str = "tsig",
                 coin_name: str = "aba") -> None:
        if flavor not in COIN_FLAVORS:
            raise ValueError(f"unknown coin flavor {flavor!r}")
        self.ctx = ctx
        self.tag = tag
        self.flavor = flavor
        self.coin_name = coin_name
        # created on first lookup (shares for a round can arrive early)
        self._rounds: dict[int, _RoundState] = defaultdict(_RoundState)
        #: the manager's instance key in the transport, built once
        self.key = (self.kind, tag, 0)
        ctx.transport.activate(self.key)
        # The manager only counts as "unfinished" while a requested coin is
        # still unrevealed (drives NACK repair for missing coin shares).
        ctx.transport.mark_complete(self.key)

    # ---------------------------------------------------------------- request
    def request(self, round_number: int, callback: CoinCallback) -> None:
        """Ask for the coin of ``round_number``; ``callback`` fires when known."""
        state = self._rounds[round_number]
        if state.value is not None:
            callback(round_number, state.value)
            return
        state.callbacks.append(callback)
        state.requested = True
        self.ctx.transport.mark_incomplete(self.key)
        self._maybe_send_share(round_number, state)
        self._maybe_combine(round_number, state)

    def _coin_tag(self, round_number: int) -> bytes:
        return f"coin|{self.coin_name}|{self.tag}|{round_number}".encode()

    def _maybe_send_share(self, round_number: int, state: _RoundState) -> None:
        if state.share_sent or not state.requested:
            return
        state.share_sent = True
        share = self.ctx.suite.coin_share(self._coin_tag(round_number),
                                          flavor=self.flavor)
        state.shares[self.ctx.node_id] = share
        message = ComponentMessage(
            kind=self.kind, instance=0, phase="share", sender=self.ctx.node_id,
            payload={"share": share}, share_bytes=self.ctx.suite.threshold_share_bytes,
            round=round_number, tag=self.tag)
        self.ctx.transport.send(message)

    # ---------------------------------------------------------------- receive
    def handle(self, message: ComponentMessage) -> None:
        """Process a coin-share message (registered as a kind handler)."""
        if message.tag != self.tag or message.phase != "share":
            return
        round_number = message.round
        state = self._rounds[round_number]
        if message.sender in state.shares or state.value is not None:
            self._maybe_combine(round_number, state)
            return
        share = message.payload.get("share")
        if share is None:
            return
        if message.sender != self.ctx.node_id:
            if not self.ctx.suite.coin_verify_share(self._coin_tag(round_number),
                                                    share, flavor=self.flavor):
                return
        state.shares[message.sender] = share
        self._maybe_combine(round_number, state)

    # ---------------------------------------------------------------- combine
    def _maybe_combine(self, round_number: int, state: _RoundState) -> None:
        if state.value is not None or not state.requested:
            return
        if len(state.shares) < self.ctx.small_quorum:
            return
        # Every stored share already passed per-share verification in
        # :meth:`handle` (own shares are honestly produced), so the combine
        # can skip its redundant batch re-verification; the modelled combine
        # cost is charged either way and the combined element is identical.
        value = self.ctx.suite.coin_combine(self._coin_tag(round_number),
                                            list(state.shares.values()),
                                            flavor=self.flavor, verify=False)
        state.value = value
        if all(s.value is not None or not s.requested for s in self._rounds.values()):
            self.ctx.transport.mark_complete(self.key)
        callbacks, state.callbacks = state.callbacks, []
        for callback in callbacks:
            callback(round_number, value)

