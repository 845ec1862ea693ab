"""HoneyBadgerBFT adapted to wireless networks (Fig. 7a).

Per epoch, every node:

1. threshold-encrypts its transaction batch (censorship resilience),
2. contributes the ciphertext to an Asynchronous Common Subset built from N
   parallel RBC instances and N parallel ABA instances,
3. once the subset is fixed, broadcasts decryption shares for every included
   ciphertext, and
4. decrypts with ``f + 1`` shares and outputs the union of the decrypted
   batches in a canonical order.

Two variants are provided, matching the paper's testbed:

* ``HoneyBadger(coin="sc")`` -- shared-coin ABA (ABA-SC, threshold signatures);
* ``HoneyBadger(coin="lc")`` -- local-coin ABA (ABA-LC, Bracha's protocol).

BEAT0 (:class:`repro.protocols.beat.Beat`) reuses this class with the
threshold coin-flipping ABA (ABA-CP).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.components.aba_factory import ABA_BY_COIN, aba_factory
from repro.components.base import ComponentContext, ComponentRouter
from repro.components.rbc import BrachaRbc
from repro.core.packet import ComponentMessage
from repro.crypto.threshold_enc import (
    ThresholdEncError,
    ciphertext_from_bytes,
    ciphertext_to_bytes,
)
from repro.protocols.acs import CommonSubset
from repro.protocols.base import (
    ConsensusConfig,
    ConsensusProtocol,
    DecideCallback,
    decode_batch,
    dedupe,
    encode_batch,
)


class HoneyBadger(ConsensusProtocol):
    """One node's HoneyBadgerBFT instance for one epoch."""

    name = "honeybadger"
    DEC_KIND = "acs_dec"

    def __init__(self, ctx: ComponentContext, router: ComponentRouter,
                 coin: str = "sc",
                 config: Optional[ConsensusConfig] = None,
                 on_decide: Optional[DecideCallback] = None) -> None:
        super().__init__(ctx, router, config, on_decide)
        if coin not in ABA_BY_COIN:
            raise ValueError(f"unknown coin type {coin!r}; expected sc, lc or cp")
        self.coin_type = coin
        self.tag = ("hb", self.config.epoch)
        router.adopt(self.tag, self)
        # all parallel ABAs of the epoch share one round coin
        make_aba = aba_factory(coin, ctx, router, coin_tag=self.tag,
                               coin_name="hb")
        router.register_kind_handler(self.DEC_KIND, self.tag, self._on_dec_share)
        self.acs = CommonSubset(
            ctx, router, self.tag,
            rbc_factory=lambda index: BrachaRbc(ctx, index, tag=self.tag),
            aba_factory=lambda index: make_aba(index, tag=self.tag),
            on_output=self._on_acs_output)
        self._acs_output: Optional[dict[int, bytes]] = None
        self._dec_shares: dict[int, dict[int, Any]] = {}
        #: per ACS index, the shares that verified correctly (each share is
        #: verified at most once, when its ciphertext is known)
        self._valid_dec_shares: dict[int, dict[int, Any]] = {}
        self._ciphertexts: dict[int, Any] = {}
        self._decrypted: dict[int, list[bytes]] = {}
        #: per ACS index, its decryption instance's key in the transport
        self._dec_keys: dict[int, tuple] = {}
        self._dec_share_sent = False

    # ------------------------------------------------------------------- API
    def propose(self, transactions: list[bytes]) -> None:
        """Encrypt and contribute this node's transaction batch."""
        self.started_at = self.ctx.sim.now
        payload = encode_batch(transactions)
        if self.config.use_threshold_encryption:
            label = f"hb|{self.config.epoch}|{self.ctx.node_id}".encode()
            ciphertext = self.ctx.suite.encrypt(payload, label)
            value = ciphertext_to_bytes(ciphertext)
        else:
            value = payload
        self.acs.propose(value)

    def inject_conflicting_proposal(self, transactions: list[bytes]) -> bool:
        """Equivocation attack: broadcast a second INITIAL for this node's RBC.

        Honest RBC instances echo whichever INITIAL they see first and only
        deliver a value backed by a ``2f + 1`` echo quorum, so either one of
        the two proposals wins everywhere or the instance never delivers and
        ACS excludes this node -- agreement must hold either way.  The attack
        mirrors what :meth:`propose` sends, bypassing the local RBC state.
        """
        payload = encode_batch(transactions)
        if self.config.use_threshold_encryption:
            label = f"hb|{self.config.epoch}|{self.ctx.node_id}|equiv".encode()
            value = ciphertext_to_bytes(self.ctx.suite.encrypt(payload, label))
        else:
            value = payload
        message = ComponentMessage(
            kind=BrachaRbc.kind, instance=self.ctx.node_id, phase="initial",
            sender=self.ctx.node_id, payload={"value": value},
            payload_bytes=len(value), tag=self.tag)
        self.ctx.transport.send(message)
        return True

    # ------------------------------------------------------------ pipelining
    @property
    def pipeline_ready(self) -> bool:
        """Ready for the next epoch once this node's common subset is locked.

        After ``_on_acs_output`` the decided block is a pure function of the
        locked subset and the dealt keys (any ``f + 1`` honest decryption
        shares interpolate to the same plaintext), so later radio traffic can
        delay the decision but never change its bytes -- the condition the
        streaming pipeline's safety rests on.
        """
        return self.decided or self._acs_output is not None

    def close(self) -> None:
        """Also unhook the common subset, whose output callback is this
        instance."""
        super().close()
        self.acs.on_output = None

    # ------------------------------------------------------------- ACS output
    def _on_acs_output(self, output: dict[int, bytes]) -> None:
        self._acs_output = output
        self.ctx.sim.milestones += 1  # pipeline_ready just turned True
        if not self.config.use_threshold_encryption:
            self._assemble_plain_block(output)
            return
        for index, value in output.items():
            ciphertext = self._admit_ciphertext(value)
            if ciphertext is None:
                # A Byzantine proposer contributed garbage; include nothing.
                self._decrypted[index] = []
            else:
                self._ciphertexts[index] = ciphertext
        self._broadcast_dec_shares()
        # Verify the shares buffered before the ACS output arrived (their
        # ciphertexts were unknown until now), in arrival order.
        for index in self._ciphertexts:
            for sender, share in list(self._dec_shares.get(index, {}).items()):
                self._ingest_dec_share(index, sender, share)
        self._maybe_assemble_block()

    def _admit_ciphertext(self, value: bytes):
        """The agreed bytes as a ciphertext, or ``None`` when they are not one.

        This is where a peer-controlled group element enters the threshold
        layer: the ephemeral becomes the base of every decryption share, and
        shares combine to one plaintext only over the order-``q`` subgroup
        (on ``P - U`` different ``f + 1`` subsets decrypt differently).  The
        verdict is a function of the agreed bytes alone, so every honest
        node reaches it alike; it charges no modelled CPU and draws no RNG.
        """
        try:
            ciphertext = ciphertext_from_bytes(value)
        except ThresholdEncError:
            return None
        group = self.ctx.suite.threshold_enc.group
        return ciphertext if group.is_member(ciphertext.ephemeral) else None

    def _assemble_plain_block(self, output: dict[int, bytes]) -> None:
        block: list[bytes] = []
        for index in sorted(output):
            block.extend(decode_batch(output[index]))
        self._finish(dedupe(block))

    # ------------------------------------------------------ threshold decrypt
    def _broadcast_dec_shares(self) -> None:
        if self._dec_share_sent or self._acs_output is None:
            return
        self._dec_share_sent = True
        for index, ciphertext in self._ciphertexts.items():
            key = self._dec_keys[index] = (self.DEC_KIND, self.tag, index)
            self.ctx.transport.activate(key)
            share = self.ctx.suite.decryption_share(ciphertext)
            self._dec_shares.setdefault(index, {})[self.ctx.node_id] = share
            message = ComponentMessage(
                kind=self.DEC_KIND, instance=index, phase="share",
                sender=self.ctx.node_id, payload={"share": share},
                share_bytes=self.ctx.suite.threshold_share_bytes, tag=self.tag)
            self.ctx.transport.send(message)

    def _on_dec_share(self, message: ComponentMessage) -> None:
        if message.phase != "share":
            return
        index = message.instance
        share = message.payload.get("share")
        if share is None:
            return
        shares = self._dec_shares.setdefault(index, {})
        if message.sender in shares:
            return
        shares[message.sender] = share
        if self._acs_output is None:
            # The ciphertext for this index is not known yet; the share is
            # buffered and verified once the ACS output arrives.
            return
        self._ingest_dec_share(index, message.sender, share)
        self._maybe_assemble_block()

    def _ingest_dec_share(self, index: int, sender: int, share: Any) -> None:
        """Verify one share (at most once) and decrypt when a quorum forms.

        The previous implementation re-verified *every* buffered share of
        *every* undecrypted ciphertext on *every* share arrival -- O(n^4)
        verifications per node per epoch, the dominant cost of large-n runs.
        Shares are now verified exactly once, on the event that delivers
        them, and only their own index is re-examined; the decrypted payload
        (any ``f + 1`` valid shares interpolate to the same plaintext) and
        the RNG stream are unchanged.
        """
        if self.decided or index in self._decrypted:
            return
        ciphertext = self._ciphertexts.get(index)
        if ciphertext is None:
            return
        valid = self._valid_dec_shares.setdefault(index, {})
        if sender in valid:
            return
        if sender == self.ctx.node_id:
            valid[sender] = share
        elif self.ctx.suite.verify_decryption_share(ciphertext, share):
            valid[sender] = share
        if len(valid) < self.ctx.small_quorum:
            return
        # Every share in ``valid`` already passed per-share verification.
        payload = self.ctx.suite.decrypt(ciphertext, list(valid.values()),
                                         verify=False)
        try:
            self._decrypted[index] = decode_batch(payload)
        except ValueError:
            # A Byzantine proposer contributed garbage; include nothing.
            self._decrypted[index] = []
        self.ctx.transport.mark_complete(self._dec_keys[index])

    def _maybe_assemble_block(self) -> None:
        if self.decided or self._acs_output is None:
            return
        if len(self._decrypted) == len(self._acs_output):
            block: list[bytes] = []
            for index in sorted(self._decrypted):
                block.extend(self._decrypted[index])
            self._finish(dedupe(block))
