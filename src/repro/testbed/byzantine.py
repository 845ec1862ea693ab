"""Byzantine fault strategies for testbed runs.

Up to ``f`` nodes per (cluster-)instance can be assigned one of these
strategies.  They exercise the standard failure modes the asynchronous model
allows without modifying the honest protocol code:

* ``crash``    -- the node is silent from the start (fail-stop);
* ``late-crash`` -- the node participates for a while, then goes silent;
* ``epoch-crash`` -- streaming runs only: the node participates honestly
  until the stream reaches :data:`CRASH_AT_EPOCH`, then goes silent (crash
  *at epoch k*, the mid-stream fail-stop model of the streaming campaign
  cells);
* ``mute-proposer`` -- the node never proposes but otherwise follows the
  protocol (its RBC instance never completes, so ACS must exclude it);
* ``garbage-proposer`` -- the node proposes an undecodable payload (honest
  nodes must still terminate and simply commit nothing for it);
* ``equivocating-proposer`` -- the node opens its broadcast instance with
  *two* conflicting proposals (the classic equivocation attack; honest nodes
  must still agree on at most one of them, or exclude the node entirely);
* ``slow-links`` -- the adversary adds :data:`SLOW_LINK_DELAY_S` on all
  links from the node (message-delay attack permitted by the asynchronous
  model).

Loss, duplication and reordering on a node's outgoing links is not a
strategy: it is a sender-scoped
:class:`~repro.net.adversary.LinkFaultSpec` passed through
:meth:`~repro.testbed.scenarios.Scenario.with_link_faults`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BYZANTINE_STRATEGIES = (
    "crash",
    "late-crash",
    "epoch-crash",
    "mute-proposer",
    "garbage-proposer",
    "equivocating-proposer",
    "slow-links",
)

#: strategies where the *network* is attacked but the node itself runs
#: unmodified honest protocol code -- such nodes stay in the honest set, so
#: the conformance checkers still demand agreement/liveness from them (the
#: whole point of a message-delay attack is that honest nodes must ride it
#: out).
NETWORK_FAULT_STRATEGIES = ("slow-links",)

#: delay (seconds) the ``slow-links`` strategy adds to the node's links
SLOW_LINK_DELAY_S = 4.0
#: streaming epoch index at which ``epoch-crash`` nodes go silent (the crash
#: fires just before the node would propose for that epoch)
CRASH_AT_EPOCH = 2


@dataclass(frozen=True)
class ByzantineSpec:
    """Assignment of strategies to node ids."""

    assignments: dict[int, str] = field(default_factory=dict)
    #: virtual time at which ``late-crash`` nodes go silent
    late_crash_at_s: float = 20.0

    def __post_init__(self) -> None:
        for node_id, strategy in self.assignments.items():
            if strategy not in BYZANTINE_STRATEGIES:
                raise ValueError(
                    f"unknown Byzantine strategy {strategy!r} for node {node_id}; "
                    f"known: {BYZANTINE_STRATEGIES}")

    @classmethod
    def none(cls) -> "ByzantineSpec":
        """No Byzantine nodes."""
        return cls(assignments={})

    @classmethod
    def crash_nodes(cls, node_ids: list[int]) -> "ByzantineSpec":
        """Crash the given nodes from the start."""
        return cls(assignments={node_id: "crash" for node_id in node_ids})

    @property
    def byzantine_ids(self) -> set[int]:
        """Ids of nodes under *behavioural* adversarial control.

        Nodes assigned a network-level strategy (slow links) are not
        included: they run honest code and must still satisfy agreement and
        liveness, so the harness keeps them in the honest set.
        """
        return {node_id for node_id, strategy in self.assignments.items()
                if strategy not in NETWORK_FAULT_STRATEGIES}

    def is_byzantine(self, node_id: int) -> bool:
        """True if the node has any adversarial assignment (including the
        network-level attacks, which keep the node itself honest)."""
        return node_id in self.assignments

    def proposes(self, node_id: int) -> bool:
        """Whether the node submits a (possibly garbage) proposal."""
        strategy = self.assignments.get(node_id)
        return strategy not in ("crash", "mute-proposer")

    def proposal_is_garbage(self, node_id: int) -> bool:
        """Whether the node's proposal should be undecodable garbage."""
        return self.assignments.get(node_id) == "garbage-proposer"

    def equivocates(self, node_id: int) -> bool:
        """Whether the node opens its broadcast with conflicting proposals."""
        return self.assignments.get(node_id) == "equivocating-proposer"

    def nodes_with(self, strategy: str) -> list[int]:
        """Sorted node ids assigned ``strategy``."""
        return sorted(node_id for node_id, assigned in self.assignments.items()
                      if assigned == strategy)
