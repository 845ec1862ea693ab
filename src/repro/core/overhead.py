"""Analytical message-overhead model (Table I of the paper).

The paper counts the *message overhead per node* of an N-component parallel
protocol in three settings:

==================  =====================  ===================  ==================
component           wired network          baseline wireless    ConsensusBatcher
==================  =====================  ===================  ==================
RBC                 (N-1)(1 + 2N)          1 + 2N               1 + 2
CBC                 3(N-1)                 1 + (N-1) + 1        1 + 1 + 1
PRBC                (N-1)(1 + 3N)          1 + 3N               1 + 3
Bracha's ABA        3N(N-1)(1 + 2N)        3N(1 + 2N)           3(1 + 2)
Cachin's ABA        3N(N-1)                3N                   3
==================  =====================  ===================  ==================

The wired column counts unicasts (a broadcast to N-1 peers costs N-1
messages); the wireless baseline exploits the shared channel (a broadcast is
one transmission); ConsensusBatcher further merges the N parallel instances
into a single transmission per phase.  These formulas are reproduced here and
cross-checked against the simulator's channel-access counts by the
``table1`` experiment spec (``PYTHONPATH=src python
scripts/run_experiments.py --full --only table1``).
"""

from __future__ import annotations

from dataclasses import dataclass


class OverheadError(ValueError):
    """Raised for invalid parameters (N < 2, an unknown component name)."""


@dataclass(frozen=True)
class OverheadRow:
    """Message overhead per node for one component in the three settings."""

    component: str
    wired: int
    wireless_baseline: int
    consensus_batcher: int


class MessageOverheadModel:
    """Per-node message overhead of N-component parallel protocols."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise OverheadError(f"need at least 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes

    # ---------------------------------------------------------------- rows
    def rbc(self) -> OverheadRow:
        """Reliable broadcast: INITIAL + ECHO + READY."""
        n = self.num_nodes
        return OverheadRow("RBC",
                           wired=(n - 1) * (1 + 2 * n),
                           wireless_baseline=1 + 2 * n,
                           consensus_batcher=1 + 2)

    def cbc(self) -> OverheadRow:
        """Consistent broadcast: INITIAL + ECHO (N-to-1) + FINISH."""
        n = self.num_nodes
        return OverheadRow("CBC",
                           wired=3 * (n - 1),
                           wireless_baseline=1 + (n - 1) + 1,
                           consensus_batcher=1 + 1 + 1)

    def prbc(self) -> OverheadRow:
        """Provable reliable broadcast: RBC + DONE."""
        n = self.num_nodes
        return OverheadRow("PRBC",
                           wired=(n - 1) * (1 + 3 * n),
                           wireless_baseline=1 + 3 * n,
                           consensus_batcher=1 + 3)

    def bracha_aba(self) -> OverheadRow:
        """Bracha's (local-coin) ABA: three RBC phases per round, per instance."""
        n = self.num_nodes
        return OverheadRow("Bracha's ABA",
                           wired=3 * n * (n - 1) * (1 + 2 * n),
                           wireless_baseline=3 * n * (1 + 2 * n),
                           consensus_batcher=3 * (1 + 2))

    def cachin_aba(self) -> OverheadRow:
        """Cachin-style (shared-coin) ABA: BVAL + AUX + SHARE per round."""
        n = self.num_nodes
        return OverheadRow("Cachin's ABA",
                           wired=3 * n * (n - 1),
                           wireless_baseline=3 * n,
                           consensus_batcher=3)

    # --------------------------------------------------------------- table
    def table(self) -> list[OverheadRow]:
        """All rows of Table I."""
        return [self.rbc(), self.cbc(), self.prbc(),
                self.bracha_aba(), self.cachin_aba()]

    def row(self, component: str) -> OverheadRow:
        """Look up one row by its component name (``"RBC"``, ...,
        ``"Cachin's ABA"``)."""
        for row in self.table():
            if row.component == component:
                return row
        raise OverheadError(
            f"unknown component {component!r}; known: "
            f"{[row.component for row in self.table()]}")
