"""Asynchronous Common Subset (ACS) -- the core of HoneyBadgerBFT and BEAT.

ACS lets every node contribute one value and agree on a common subset of at
least ``N - f`` of them.  The HoneyBadgerBFT construction (Fig. 2a) runs N
parallel RBC instances (one per proposer) and N parallel ABA instances (one
per RBC) that vote on whether the corresponding proposal makes it into the
subset.

The wireless adaptation (Section V-A, Fig. 7a) changes *when* the ABAs start:
instead of starting ABA_j individually as RBC_j delivers, a node waits for the
``2f + 1`` fastest RBC instances to deliver and then starts **all** N ABA
instances simultaneously -- voting 1 for the delivered instances and 0 for the
rest.  This keeps the batched ABA packets aligned and denies Byzantine nodes
early access to the round coin.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.components.base import Component, ComponentContext, ComponentRouter

AcsOutputCallback = Callable[[dict[int, bytes]], None]
AbaFactory = Callable[[int], Component]
RbcFactory = Callable[[int], Component]


class CommonSubset:
    """One node's ACS instance."""

    def __init__(self, ctx: ComponentContext, router: ComponentRouter, tag: Any,
                 rbc_factory: RbcFactory, aba_factory: AbaFactory,
                 on_output: Optional[AcsOutputCallback] = None,
                 simultaneous_aba_start: bool = True) -> None:
        self.ctx = ctx
        self.router = router
        self.tag = tag
        self.on_output = on_output
        self.simultaneous_aba_start = simultaneous_aba_start
        self.rbc_values: dict[int, bytes] = {}
        self.aba_decisions: dict[int, int] = {}
        self.abas_started = False
        self.output: Optional[dict[int, bytes]] = None
        self.completed = False

        self.rbc_instances: dict[int, Component] = {}
        self.aba_instances: dict[int, Component] = {}
        # a component reports its own instance, which is its index here
        for index in range(ctx.num_nodes):
            rbc = rbc_factory(index)
            rbc.on_output = self._on_rbc_output
            self.rbc_instances[index] = rbc
            router.register(rbc)
            aba = aba_factory(index)
            aba.on_output = self._on_aba_output
            self.aba_instances[index] = aba
            router.register(aba)

    # ------------------------------------------------------------------- API
    def propose(self, value: bytes) -> None:
        """Contribute this node's value (starts its own RBC instance)."""
        self.rbc_instances[self.ctx.node_id].start(value)

    # --------------------------------------------------------------- RBC side
    def _on_rbc_output(self, index: int, value: bytes) -> None:
        if index in self.rbc_values:
            return
        self.rbc_values[index] = value
        if not self.abas_started:
            if self.simultaneous_aba_start:
                if len(self.rbc_values) >= self.ctx.quorum:
                    self._start_all_abas()
            else:
                # Wired-style behaviour: vote 1 for this ABA immediately.
                self.aba_instances[index].start(1)
        self._maybe_output()

    def _start_all_abas(self) -> None:
        """Start every ABA instance at once (the wireless rule of Fig. 7a)."""
        self.abas_started = True
        delivered = set(self.rbc_values)
        for index, aba in self.aba_instances.items():
            if not getattr(aba, "_started", False):
                aba.start(1 if index in delivered else 0)

    # --------------------------------------------------------------- ABA side
    def _on_aba_output(self, index: int, decision: int) -> None:
        if index in self.aba_decisions:
            return
        self.aba_decisions[index] = decision
        # Standard ACS rule: once N - f ABAs have output 1, vote 0 everywhere
        # we have not voted yet (covered by the simultaneous start in the
        # wireless configuration, but needed for the wired-style mode).
        ones = sum(1 for value in self.aba_decisions.values() if value == 1)
        if not self.abas_started and ones >= self.ctx.num_nodes - self.ctx.faults:
            self._start_all_abas()
        self._maybe_output()

    # ----------------------------------------------------------------- output
    def _maybe_output(self) -> None:
        if self.completed:
            return
        if len(self.aba_decisions) < self.ctx.num_nodes:
            return
        accepted = [index for index, decision in self.aba_decisions.items()
                    if decision == 1]
        if any(index not in self.rbc_values for index in accepted):
            # ABA said yes but the proposal has not arrived yet; RBC totality
            # plus NACK retransmission guarantee it eventually will.
            return
        self.output = {index: self.rbc_values[index] for index in sorted(accepted)}
        self.completed = True
        if self.on_output is not None:
            self.on_output(self.output)
