"""The asynchronous adversary: delays, reordering and Byzantine node control.

Section III-A of the paper adopts the standard asynchronous model: message
delays between nodes are unbounded (but honest-to-honest messages are
eventually delivered), the adversary may reorder deliveries, and up to ``f``
of the ``N = 3f + 1`` nodes are Byzantine.

In the simulator the adversary manifests in three places:

* the :class:`DelayModel` adds per-link delivery delays (random jitter plus
  targeted extra delay on chosen sender/receiver pairs), which exercises the
  protocols' timing-assumption-free design;
* :class:`LinkFaultSpec` / :class:`PartitionSpec` describe message-level
  attacks within the asynchronous model -- targeted drop, duplication,
  reordering and (transient) link partitions -- applied by the channel through
  :meth:`AsyncAdversary.plan_delivery`; and
* the Byzantine nodes and their *behaviour* (silence, equivocation,
  adversarial votes) are the scenario's
  :class:`~repro.testbed.byzantine.ByzantineSpec`, whose strategies plug
  into the protocol layer (and, for crashes and slow links, into this
  adversary's models).

Dropped frames are indistinguishable from unbounded delay from the protocols'
point of view, so they are only admissible on links the retransmission layer
repairs (NACK resends) or for a bounded window (a healing partition);
permanent total silence of an honest link would violate eventual delivery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class DelayModel:
    """Per-link delivery delay model.

    ``base_jitter_s`` is the mean of an exponential jitter applied to every
    delivery; ``targeted`` maps ``(sender, receiver)`` pairs to an extra fixed
    delay (the adversary "arbitrarily prolonging the delay between messages of
    two nodes"); ``base_extra_s`` is a fixed delay added to *every* link (a
    scenario-phase latency override -- satellite hops, congestion -- mutated
    mid-run by the :class:`~repro.testbed.scenario_packs.ScenarioController`);
    ``max_delay_s`` caps the total so honest messages are eventually
    delivered, as the model requires.
    """

    base_jitter_s: float = 0.005
    targeted: dict[tuple[int, int], float] = field(default_factory=dict)
    base_extra_s: float = 0.0
    max_delay_s: float = 30.0

    def delay(self, sender: int, receiver: int, rng) -> float:
        """Extra delivery delay for one frame on the (sender, receiver) link."""
        jitter = rng.expovariate(1.0 / self.base_jitter_s) if self.base_jitter_s > 0 else 0.0
        extra = self.targeted.get((sender, receiver), 0.0)
        return min(jitter + extra + self.base_extra_s, self.max_delay_s)


@dataclass(frozen=True)
class LinkFaultSpec:
    """Message-level faults on a set of links, active over a time window.

    Each delivery on a matching link is independently dropped with
    ``drop_rate``, delivered twice with ``duplicate_rate`` (the duplicate gets
    its own extra delay, exercising at-most-once handling), and delayed by an
    extra uniform jitter up to ``reorder_jitter_s`` (large enough jitter
    reorders deliveries relative to the send order).

    ``senders`` restricts the affected links to those from the listed nodes
    (``None`` matches every node); ``start_s`` / ``end_s`` bound the active
    window in virtual time (``end_s=None`` means forever).
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_jitter_s: float = 0.0
    senders: Optional[frozenset[int]] = None
    start_s: float = 0.0
    end_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.reorder_jitter_s < 0:
            raise ValueError(
                f"reorder_jitter_s must be >= 0, got {self.reorder_jitter_s}")
        if self.start_s < 0:
            raise ValueError(f"start_s must be >= 0, got {self.start_s}")
        if self.end_s is not None and self.end_s <= self.start_s:
            raise ValueError(
                f"end_s must be > start_s ({self.start_s}), got {self.end_s}")

    def applies(self, sender: int, now: float) -> bool:
        """True if this fault is active for a frame from ``sender`` right
        now."""
        if now < self.start_s:
            return False
        if self.end_s is not None and now >= self.end_s:
            return False
        return self.senders is None or sender in self.senders


@dataclass(frozen=True)
class PartitionSpec:
    """A (transient) network partition.

    While active, a frame whose sender and receiver sit in *different* groups
    is dropped.  Nodes not listed in any group are unaffected (this lets a
    multi-hop campaign partition the leader backbone without touching the
    cluster channels).  ``heal_s=None`` keeps the partition forever -- only
    admissible in runs that assert *non*-decision, since it violates eventual
    delivery.
    """

    groups: tuple[frozenset[int], ...]
    start_s: float = 0.0
    heal_s: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        seen: set[int] = set()
        for index, group in enumerate(self.groups):
            if not group:
                raise ValueError(f"groups[{index}] is empty; every partition "
                                 f"group needs at least one node")
            overlap = seen & group
            if overlap:
                raise ValueError(f"partition groups overlap on nodes {sorted(overlap)}")
            seen |= group
        if self.start_s < 0:
            raise ValueError(f"start_s must be >= 0, got {self.start_s}")
        if self.heal_s is not None and self.heal_s <= self.start_s:
            raise ValueError(
                f"heal_s must be > start_s ({self.start_s}), got {self.heal_s}")

    def group_of(self, node_id: int) -> Optional[int]:
        """Index of the group containing ``node_id`` (None if unlisted)."""
        for index, group in enumerate(self.groups):
            if node_id in group:
                return index
        return None

    def opinion(self, sender: int, receiver: int,
                now: float) -> Optional[bool]:
        """This partition's verdict on the link, or None if it abstains.

        A partition only has an opinion while active *and* when both
        endpoints are listed in one of its groups: ``True`` means the link is
        cut (different groups), ``False`` means the partition explicitly
        keeps the link up (same group).  Abstention is what lets the
        precedence rule in :meth:`AsyncAdversary.plan_delivery` compose
        overlapping partitions deterministically.
        """
        if now < self.start_s:
            return None
        if self.heal_s is not None and now >= self.heal_s:
            return None
        sender_group = self.group_of(sender)
        receiver_group = self.group_of(receiver)
        if sender_group is None or receiver_group is None:
            return None
        return sender_group != receiver_group


class AsyncAdversary:
    """Owns the per-link delay model and the message-level fault models."""

    def __init__(self, delay_model: Optional[DelayModel] = None,
                 link_faults: Optional[list[LinkFaultSpec]] = None,
                 partitions: Optional[list[PartitionSpec]] = None) -> None:
        self.delay_model = delay_model or DelayModel()
        self.link_faults: list[LinkFaultSpec] = list(link_faults or [])
        self.partitions: list[PartitionSpec] = list(partitions or [])

    def add_link_fault(self, fault: LinkFaultSpec) -> None:
        """Install a message-level link fault (mid-run installs are safe:
        no RNG is drawn until the fault actually matches a delivery)."""
        self.link_faults.append(fault)

    def add_partition(self, partition: PartitionSpec) -> None:
        """Install a (transient) partition."""
        self.partitions.append(partition)

    def remove_link_fault(self, fault: LinkFaultSpec) -> None:
        """Retire an installed link fault (raises ValueError if absent).

        Removal never perturbs the fault-free RNG stream -- an inactive
        fault draws nothing -- so a scenario controller can install and
        retire faults at phase boundaries without breaking bit-identity of
        the surrounding deliveries.
        """
        self.link_faults.remove(fault)

    def remove_partition(self, partition: PartitionSpec) -> None:
        """Retire an installed partition (raises ValueError if absent)."""
        self.partitions.remove(partition)

    def plan_delivery(self, sender: int, receiver: int, now: float,
                      rng) -> list[float]:
        """Decide the fate of one frame on the (sender, receiver) link.

        Returns the list of extra delivery delays, one per copy that should
        arrive: ``[]`` means the frame is dropped (the channel records the
        drop in its trace), one entry is a normal delivery, two entries a
        duplication.  All randomness is drawn from the caller-supplied
        (simulator) RNG, and no draws happen unless a fault actually matches
        the link, so fault-free runs keep a bit-identical RNG stream.

        When several active partitions cover both endpoints, precedence is
        deterministic and independent of install order *except* as a
        tie-break: the covering partition with the latest ``start_s`` decides
        the link (ties go to the most recently installed).  Partitions that
        abstain -- inactive, or not listing both endpoints -- never override
        one that has an opinion.  This is what makes layered scenario phases
        well-defined: a later phase's partition supersedes an earlier one it
        overlaps with instead of the two OR-ing into a surprise cut.
        """
        if not self.partitions and not self.link_faults:
            # the fault-free deployment: nothing below can match, and the
            # one draw a delivery makes is the delay model's
            return [self.delay_model.delay(sender, receiver, rng)]
        opinion: Optional[bool] = None
        opinion_start = -math.inf
        for partition in self.partitions:
            verdict = partition.opinion(sender, receiver, now)
            if verdict is None:
                continue
            if partition.start_s >= opinion_start:
                opinion_start = partition.start_s
                opinion = verdict
        if opinion:
            return []
        delays = [self.delay_model.delay(sender, receiver, rng)]
        for fault in self.link_faults:
            if not fault.applies(sender, now):
                continue
            if fault.drop_rate > 0.0 and rng.random() < fault.drop_rate:
                return []
            if fault.reorder_jitter_s > 0.0:
                cap = self.delay_model.max_delay_s
                delays = [min(delay + rng.uniform(0.0, fault.reorder_jitter_s), cap)
                          for delay in delays]
            if fault.duplicate_rate > 0.0 and rng.random() < fault.duplicate_rate:
                delays.append(min(delays[0] + rng.uniform(0.0, max(
                    fault.reorder_jitter_s, self.delay_model.base_jitter_s)),
                    self.delay_model.max_delay_s))
        return delays

    def eventual_delivery_holds(self) -> bool:
        """True if no installed fault can silence a link forever.

        Permanent partitions and drop-rate-1.0 faults without an end time
        violate the asynchronous model's eventual-delivery guarantee; campaign
        fault models that use them must pair them with a non-decision
        expectation.
        """
        for partition in self.partitions:
            if partition.heal_s is None or math.isinf(partition.heal_s):
                return False
        for fault in self.link_faults:
            if fault.drop_rate >= 1.0 and (fault.end_s is None
                                           or math.isinf(fault.end_s)):
                return False
        return True

    def target_link(self, sender: int, receiver: int, extra_delay_s: float) -> None:
        """Make the adversary slow down a specific link."""
        self.delay_model.targeted[(sender, receiver)] = extra_delay_s
