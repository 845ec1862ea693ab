"""Cachin's erasure-coded reliable broadcast (AVID style).

Cachin-Tessaro RBC divides the proposal into N erasure-coded blocks and sends
a different block to each node; echoes carry the blocks so that every node
can reconstruct the proposal from any ``f + 1`` of them.  In wired networks
this trades bandwidth for balance; in a wireless broadcast medium it costs
``N - 1`` separate transmissions in the INITIAL phase and therefore
under-utilises the channel, which is why the paper standardises on Bracha's
RBC (Section IV-C.1).  The implementation is provided so the comparison can
be reproduced.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from repro.components.base import Broadcast, ComponentContext, OutputCallback
from repro.components.erasure import ErasureBlock, ErasureError, decode_blocks, encode_blocks
from repro.components.votes import NOTHING, BrachaVotes
from repro.core.packet import ComponentMessage


class CachinRbc(Broadcast):
    """One erasure-coded RBC instance.

    The ECHO / READY rule lives in :class:`~repro.components.votes.BrachaVotes`
    (keyed by dispersal root); delivery also needs ``f + 1`` blocks of the
    deliverable root that decode to a value whose own encoding has that root.
    A block is accepted only at the point dealt to its sender, so a faulty
    echoer can spoil its own block and nobody else's.  Blocks carry no
    per-block proof, so a spoiled block among the ones decoded is detected
    (the instance stays undelivered rather than deliver a wrong value) but
    not told apart from the good ones: liveness under a corrupted block is
    out of scope.
    """

    kind = "rbc"

    def __init__(self, ctx: ComponentContext, instance: int, tag: Any = None,
                 on_output: Optional[OutputCallback] = None,
                 proposer: Optional[int] = None) -> None:
        super().__init__(ctx, instance, tag, on_output, proposer)
        self.root: Optional[str] = None
        self.my_block: Optional[ErasureBlock] = None
        self._blocks: dict[str, dict[int, ErasureBlock]] = {}
        self._votes = BrachaVotes(ctx.quorum, ctx.small_quorum, self._send_ready)

    def close(self) -> None:
        """Also unhook the vote tally, whose READY callback is this
        instance."""
        super().close()
        self._votes.send_ready = None

    # ------------------------------------------------------------------ start
    def propose(self, value: bytes) -> None:
        """Encode and disperse the proposal."""
        blocks = encode_blocks(value, self.ctx.small_quorum, self.ctx.num_nodes)
        root = self._root_of(blocks)
        self.root = root
        # One INITIAL per recipient: the N-1 transmissions the paper points to.
        for recipient in range(self.ctx.num_nodes):
            block = blocks[recipient]
            if recipient == self.ctx.node_id:
                self.my_block = block
                self._record_block(root, recipient, block)
                continue
            self.send("initial", {"root": root, "recipient": recipient,
                                  "block": block},
                      payload_bytes=block.size_bytes(), slot=recipient)
        self._send_echo()

    @staticmethod
    def _root_of(blocks: list[ErasureBlock]) -> str:
        digest = hashlib.sha256()
        for block in blocks:
            digest.update(str(block.values).encode())
        return digest.hexdigest()

    # ----------------------------------------------------------------- handle
    def handle(self, message: ComponentMessage) -> None:
        """Process INITIAL / ECHO / READY messages."""
        if message.phase == "initial":
            self._on_initial(message)
        elif message.phase == "echo":
            self._on_echo(message)
        elif message.phase == "ready":
            self._on_ready(message)

    def _on_initial(self, message: ComponentMessage) -> None:
        if message.sender != self.proposer:
            return
        if message.payload.get("recipient") != self.ctx.node_id:
            return
        if self.my_block is not None:
            return
        root = message.payload.get("root")
        block = message.payload.get("block")
        if root is None or not self._record_block(root, self.ctx.node_id, block):
            return
        self.root = root
        self.my_block = block
        self._send_echo()

    def _send_echo(self) -> None:
        self.send("echo", {"root": self.root, "block": self.my_block},
                  payload_bytes=self.my_block.size_bytes())

    def _on_echo(self, message: ComponentMessage) -> None:
        root = message.payload.get("root")
        if root is None or not self._record_block(
                root, message.sender, message.payload.get("block")):
            return
        self._votes.echo(root, message.sender)
        self._try_deliver()

    def _on_ready(self, message: ComponentMessage) -> None:
        root = message.payload.get("root")
        if root is None:
            return
        self._votes.ready(root, message.sender)
        self._try_deliver()

    # ----------------------------------------------------------- state rules
    def _record_block(self, root: str, holder: int, block: Any) -> bool:
        """Keep ``block`` if it sits at the point dealt to node ``holder``."""
        if not isinstance(block, ErasureBlock) or block.point != holder + 1:
            return False
        self._blocks.setdefault(root, {})[block.point] = block
        return True

    def _send_ready(self, root: str) -> None:
        self.send("ready", {"root": root})

    def _try_deliver(self) -> None:
        root = self._votes.deliverable
        if self.completed or root is NOTHING:
            return
        blocks = list(self._blocks.get(root, {}).values())
        if len(blocks) < self.ctx.small_quorum:
            return
        try:
            value = decode_blocks(blocks)
        except ErasureError:
            return
        if self._root_of(encode_blocks(value, self.ctx.small_quorum,
                                       self.ctx.num_nodes)) == root:
            self.complete(value)
