"""Dumbo (Dumbo2 architecture) adapted to wireless networks (Fig. 7b).

Dumbo avoids HoneyBadgerBFT's N parallel ABA instances.  Per epoch, every
node:

1. contributes its batch to one of N parallel **PRBC** instances; each
   delivery comes with a threshold-signature proof that at least one honest
   node holds the proposal;
2. after the ``2f + 1`` fastest PRBCs complete, broadcasts the list of
   (index, proof) pairs through its **CBC_value** instance;
3. after ``2f + 1`` CBC_value instances complete, broadcasts the id list of
   those completed instances through its **CBC_commit** instance
   (a small-value CBC);
4. after ``2f + 1`` CBC_commit instances complete, derives the global string
   ``pi`` that fixes the candidate order, and
5. runs **serial ABA** over the candidates in ``pi`` order -- voting 1 for a
   candidate whose CBC_value it holds -- until one ABA outputs 1; the decided
   candidate's (index, proof) list defines the block: the union of the
   referenced PRBC proposals.

The shared-coin variant (``dumbo-sc``) derives ``pi`` from the threshold
common coin (its one-bit output, so ``pi`` takes one of two orders: finding
``dumbo-pi-one-bit`` in the ROADMAP) and runs ABA-SC; the local-coin variant (``dumbo-lc``) runs
ABA-LC and derives ``pi`` from the epoch digest (the unpredictability of the
candidate order against an adaptive adversary is outside the scope of the
wireless experiments).  Serial ABA instances use per-candidate coin managers
so that coin shares for later candidates are never released prematurely
(Section V-A).
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from repro.components.aba_factory import aba_factory
from repro.components.base import ComponentContext, ComponentRouter
from repro.components.cbc import Cbc
from repro.components.cbc_small import CbcSmall
from repro.components.common_coin import CommonCoinManager
from repro.components.prbc import Prbc
from repro.core.packet import ComponentMessage
from repro.protocols.base import (
    ConsensusConfig,
    ConsensusProtocol,
    DecideCallback,
    decode_batch,
    dedupe,
    encode_batch,
)


class Dumbo(ConsensusProtocol):
    """One node's Dumbo instance for one epoch."""

    name = "dumbo"

    def __init__(self, ctx: ComponentContext, router: ComponentRouter,
                 coin: str = "sc",
                 config: Optional[ConsensusConfig] = None,
                 on_decide: Optional[DecideCallback] = None) -> None:
        super().__init__(ctx, router, config, on_decide)
        if coin not in ("sc", "lc"):
            raise ValueError(f"unknown coin type {coin!r}; expected sc or lc")
        self.coin_type = coin
        self.tag = ("dumbo", self.config.epoch)
        router.adopt(self.tag, self)
        self._value_tag = (self.tag, "value")
        self._commit_tag = (self.tag, "commit")

        self.prbc_values: dict[int, bytes] = {}
        self.prbc_proofs: dict[int, Any] = {}
        self.cbc_value_outputs: dict[int, list] = {}
        self.cbc_commit_outputs: dict[int, list] = {}
        self._value_cbc_started = False
        self._commit_cbc_started = False
        self._pi_started = False
        self.permutation: Optional[list[int]] = None
        self._candidate_cursor = 0
        self._candidate_rounds = 0
        self._aba_instances: dict[int, Any] = {}
        self._aba_decisions: dict[int, int] = {}
        self._pending_candidate: Optional[int] = None
        self._pi_coin: Optional[CommonCoinManager] = None

        self.prbc_instances: dict[int, Prbc] = {}
        self.cbc_value_instances: dict[int, Cbc] = {}
        self.cbc_commit_instances: dict[int, CbcSmall] = {}
        # a component reports its own instance, which is its index here
        for index in range(ctx.num_nodes):
            prbc = Prbc(ctx, index, tag=self.tag,
                        on_output=self._on_prbc_output)
            self.prbc_instances[index] = prbc
            router.register(prbc)
            value_cbc = Cbc(ctx, index, tag=self._value_tag,
                            on_output=self._on_cbc_value_output)
            self.cbc_value_instances[index] = value_cbc
            router.register(value_cbc)
            commit_cbc = CbcSmall(ctx, index, tag=self._commit_tag,
                                  on_output=self._on_cbc_commit_output)
            self.cbc_commit_instances[index] = commit_cbc
            router.register(commit_cbc)
        if self.coin_type == "sc":
            self._pi_coin = CommonCoinManager(ctx, tag=(self.tag, "pi"),
                                              flavor="tsig", coin_name="pi")
            router.register_kind_handler("coin", (self.tag, "pi"),
                                         self._pi_coin.handle)

    def close(self) -> None:
        """Also drop the permutation coin, which holds this instance's
        pending coin callback."""
        super().close()
        self._pi_coin = None

    # ------------------------------------------------------------------- API
    def propose(self, transactions: list[bytes]) -> None:
        """Contribute this node's transaction batch via its PRBC instance."""
        self.started_at = self.ctx.sim.now
        self.prbc_instances[self.ctx.node_id].start(encode_batch(transactions))

    def inject_conflicting_proposal(self, transactions: list[bytes]) -> bool:
        """Equivocation attack: broadcast a second INITIAL for this node's PRBC.

        PRBC inherits RBC's echo-quorum rule, so honest nodes either converge
        on one of the two proposals or exclude this node's instance; the DONE
        proof can only form for a value ``2f + 1`` nodes echoed.
        """
        value = encode_batch(transactions)
        message = ComponentMessage(
            kind=Prbc.kind, instance=self.ctx.node_id, phase="initial",
            sender=self.ctx.node_id, payload={"value": value},
            payload_bytes=len(value), tag=self.tag)
        self.ctx.transport.send(message)
        return True

    # ------------------------------------------------------------------ PRBC
    def _on_prbc_output(self, index: int, output: tuple) -> None:
        value, proof = output
        if index in self.prbc_values:
            return
        self.prbc_values[index] = value
        self.prbc_proofs[index] = proof
        if (not self._value_cbc_started
                and len(self.prbc_values) >= self.ctx.quorum):
            self._value_cbc_started = True
            completed = sorted(self.prbc_values)[: self.ctx.quorum]
            proposal = [(i, self.prbc_proofs[i]) for i in completed]
            self.cbc_value_instances[self.ctx.node_id].start(proposal)
        self._try_assemble()

    # ------------------------------------------------------------- CBC_value
    def _on_cbc_value_output(self, index: int, output: tuple) -> None:
        vector, _certificate = output
        if index in self.cbc_value_outputs:
            return
        self.cbc_value_outputs[index] = list(vector)
        if (not self._commit_cbc_started
                and len(self.cbc_value_outputs) >= self.ctx.quorum):
            self._commit_cbc_started = True
            completed = sorted(self.cbc_value_outputs)[: self.ctx.quorum]
            self.cbc_commit_instances[self.ctx.node_id].start(completed)
        self._try_assemble()

    # ------------------------------------------------------------ CBC_commit
    def _on_cbc_commit_output(self, index: int, output: tuple) -> None:
        id_list, _certificate = output
        if index in self.cbc_commit_outputs:
            return
        self.cbc_commit_outputs[index] = list(id_list)
        if (not self._pi_started
                and len(self.cbc_commit_outputs) >= self.ctx.quorum):
            self._pi_started = True
            self._derive_pi()

    # --------------------------------------------------------------- global pi
    def _derive_pi(self) -> None:
        if self.coin_type == "sc" and self._pi_coin is not None:
            self._pi_coin.request(0, lambda _round, value: self._set_pi(value))
        else:
            digest = hashlib.sha256(f"dumbo-pi|{self.tag}".encode()).digest()
            self._set_pi(int.from_bytes(digest, "big"))

    def _set_pi(self, seed: int) -> None:
        if self.permutation is not None:
            return
        order = sorted(
            range(self.ctx.num_nodes),
            key=lambda i: hashlib.sha256(f"{seed}|{i}".encode()).hexdigest())
        self.permutation = order
        self._candidate_cursor = 0
        self._start_next_candidate()

    # ------------------------------------------------------------- serial ABA
    def _start_next_candidate(self) -> None:
        if self.decided or self.permutation is None:
            return
        if self._candidate_cursor >= len(self.permutation):
            # No candidate accepted this sweep; retry (more CBC_value outputs
            # will have arrived, so votes only improve).
            self._candidate_rounds += 1
            if self._candidate_rounds > self.ctx.num_nodes:
                return
            self._candidate_cursor = 0
            self._aba_decisions.clear()
        candidate = self.permutation[self._candidate_cursor]
        slot = self._candidate_rounds * self.ctx.num_nodes + self._candidate_cursor
        aba = self._make_serial_aba(slot)
        aba.on_output = self._on_aba_output  # its instance is the slot
        self._aba_instances[slot] = aba
        self.router.register(aba)
        vote = 1 if candidate in self.cbc_value_outputs else 0
        aba.start(vote)

    def _make_serial_aba(self, slot: int):
        # serial ABAs each get their own coin (no premature share release)
        make_aba = aba_factory(self.coin_type, self.ctx, self.router,
                               coin_tag=(self.tag, "aba", slot),
                               coin_name=f"serial{slot}")
        return make_aba(slot, tag=(self.tag, "aba"))

    def _on_aba_output(self, slot: int, decision: int) -> None:
        if slot in self._aba_decisions:
            return
        self._aba_decisions[slot] = decision
        if self.decided:
            return
        candidate = self.permutation[slot % self.ctx.num_nodes]
        if decision == 1:
            self._pending_candidate = candidate
            self._try_assemble()
        else:
            self._candidate_cursor += 1
            self._start_next_candidate()

    # ------------------------------------------------------------------ block
    def _try_assemble(self) -> None:
        if self.decided or self._pending_candidate is None:
            return
        candidate = self._pending_candidate
        vector = self.cbc_value_outputs.get(candidate)
        if vector is None:
            return  # the candidate's CBC_value will arrive via retransmission
        indices = [index for index, _proof in vector]
        if any(index not in self.prbc_values for index in indices):
            return  # missing PRBC proposals arrive via retransmission
        block: list[bytes] = []
        for index in sorted(indices):
            block.extend(decode_batch(self.prbc_values[index]))
        self._finish(dedupe(block))
