"""Dynamic membership: declarative churn schedules and epoch-boundary
reconfiguration for streaming runs.

Every other layer of the testbed assumes a fixed ``(n, f)`` committee for the
life of a run.  This module is the membership layer on top of the streaming
subsystem: a :class:`MembershipSchedule` declares deterministic join / leave /
permanent-crash events on the **virtual-time axis**, and a
:class:`MembershipController` (owned by
:class:`repro.testbed.streaming.StreamingRun`) applies them at epoch
boundaries -- the only points where the committee is quiescent (every
in-flight epoch checkpointed, no protocol instance live).

The reconfiguration step at a boundary:

1. **Advance** -- apply pending schedule events to the committee under the
   *bounded-churn admission rule*: at most ``f`` (of the previous committee)
   removals are admitted per boundary, further removals defer to the next
   boundary in schedule order.  This is the reconfiguration layer's liveness
   contract -- churn the schedule offers faster than the committee can absorb
   queues instead of killing the quorum --, and it is what
   :func:`repro.testbed.invariants.check_liveness_under_bounded_churn`
   verifies from the emitted :class:`~repro.testbed.metrics.CommitteeRecord`
   trail.
2. **Redistribute** -- departed nodes' uncommitted (pooled) transactions are
   round-robined into the survivors' mempools (the streaming runner does
   this; clients fail over to live nodes).
3. **Re-deal** -- the new committee's keys come from the dealer cache keyed
   by ``(n, f, seed, committee domain)`` (see
   :meth:`repro.testbed.dealer_cache.DealerCache.scheme`): a recurring
   committee is a cache hit, two different committees can never collide.
4. **Rebind** -- every member gets a fresh transport/router pair sized to
   the new ``n`` (committee-local ids over the sorted member list), with
   every checkpointed epoch's tag pre-released through the existing
   ``release_tag`` GC path so stale frames from old committees can neither
   buffer forever nor be mistaken for live traffic (they also fail signature
   verification against the new keyring).  Departed nodes' old stacks are
   shut down and their tags released.

Determinism contract
--------------------

Schedule expansion (:meth:`MembershipSchedule.from_churn`) draws from
dedicated child RNG streams (``(seed, "churn", ...)``), never the simulator
RNG; crash events are installed as ordinary simulator events.  A schedule
with no events changes nothing: no extra RNG draws, no extra simulator
events, no rebuilt transports -- a fault-free streaming run under an empty
schedule is bit-identical (digests and ``sim_events``) to a schedule-free
run (pinned by ``tests/testbed/test_membership.py``).

Extension point
---------------

Reconfiguration is single-hop today: a multi-hop committee change would have
to re-elect cluster leaders and re-route the backbone mid-stream.  The seam
for that work is ``Deployment.epoch_leaders``, the backbone wiring a
multi-hop controller would re-route; it would re-elect a departed leader with
:func:`~repro.protocols.multihop.select_leader`, keeping its own exclusion
set across boundaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.topology import faults_tolerated
from repro.testbed.dealer_cache import deal_crypto_domain, stable_seed
from repro.testbed.harness import DeploymentError, DomainRuntime, _build_stack
from repro.testbed.workload import QUORUM_FLOOR, ChurnProcess, ChurnSpec

MEMBERSHIP_ACTIONS = ("join", "leave", "crash")


@dataclass(frozen=True)
class MembershipEvent:
    """One churn event: ``node_id`` joins / leaves / permanently crashes at
    virtual time ``at_s`` (seconds, > 0 so epoch 0 always starts from the
    declared initial committee)."""

    at_s: float
    action: str
    node_id: int

    def __post_init__(self) -> None:
        if not self.at_s > 0:
            raise ValueError(
                f"events: at_s must be > 0 (virtual seconds), got {self.at_s}")
        if self.action not in MEMBERSHIP_ACTIONS:
            raise ValueError(
                f"events: unknown action {self.action!r}; "
                f"known: {MEMBERSHIP_ACTIONS}")


class MembershipSchedule:
    """A validated, immutable churn schedule over one deployment.

    ``universe`` is every node the deployment builds (members + standby
    pool), ``initial`` the epoch-0 committee, ``events`` the time-ordered
    churn events.  Construction **replays** the whole schedule and raises
    ``ValueError`` naming the offending field for anything structurally
    unsound: a committee dropping below :data:`QUORUM_FLOOR` (events at the
    same instant count as one reconfiguration group -- a crash paired with a
    replacement join never dips), joins of active or crashed nodes, leaves
    of non-members.  A schedule that validates can always be applied.
    """

    def __init__(self, universe, initial, events=()) -> None:
        self.universe = tuple(sorted(universe))
        if len(set(self.universe)) != len(self.universe) or not self.universe:
            raise ValueError(
                f"universe: must be a non-empty set of distinct node ids, "
                f"got {tuple(universe)}")
        self.initial = tuple(sorted(initial))
        unknown = set(self.initial) - set(self.universe)
        if unknown:
            raise ValueError(
                f"initial: nodes {sorted(unknown)} are not in the universe")
        if len(set(self.initial)) != len(self.initial):
            raise ValueError(f"initial: duplicate node ids in {tuple(initial)}")
        if len(self.initial) < QUORUM_FLOOR:
            raise ValueError(
                f"initial: committee of {len(self.initial)} is below the "
                f"quorum floor ({QUORUM_FLOOR} = 3f+1 with f=1)")
        self.events = tuple(
            event if isinstance(event, MembershipEvent)
            else MembershipEvent(*event)
            for event in events)
        self._validate_events()

    def _validate_events(self) -> None:
        last_at = 0.0
        for event in self.events:
            if event.at_s < last_at:
                raise ValueError(
                    f"events: must be sorted by at_s; "
                    f"{event.at_s} follows {last_at}")
            last_at = event.at_s
            if event.node_id not in self.universe:
                raise ValueError(
                    f"events: node {event.node_id} is not in the universe")
        active = set(self.initial)
        crashed: set[int] = set()
        index = 0
        while index < len(self.events):
            # Events sharing one at_s form a single reconfiguration group;
            # the quorum floor is judged at group end (a crash paired with
            # a same-instant replacement join never dips below it).
            group_end = index
            while (group_end < len(self.events)
                   and self.events[group_end].at_s == self.events[index].at_s):
                group_end += 1
            for event in self.events[index:group_end]:
                if event.action == "join":
                    if event.node_id in active:
                        raise ValueError(
                            f"events: join of already-active node "
                            f"{event.node_id} at t={event.at_s}")
                    if event.node_id in crashed:
                        raise ValueError(
                            f"events: join of permanently-crashed node "
                            f"{event.node_id} at t={event.at_s}")
                    active.add(event.node_id)
                else:
                    if event.node_id not in active:
                        raise ValueError(
                            f"events: {event.action} of non-member "
                            f"{event.node_id} at t={event.at_s}")
                    active.discard(event.node_id)
                    if event.action == "crash":
                        crashed.add(event.node_id)
            if len(active) < QUORUM_FLOOR:
                raise ValueError(
                    f"events: committee drops to {len(active)} at "
                    f"t={self.events[index].at_s}, below the quorum floor "
                    f"({QUORUM_FLOOR} = 3f+1 with f=1)")
            index = group_end

    @classmethod
    def from_churn(cls, spec: ChurnSpec, num_nodes: int,
                   seed: int = 0) -> "MembershipSchedule":
        """Expand a declarative :class:`ChurnSpec` into a schedule.

        Pure function of ``(spec, num_nodes, seed)`` -- identical arguments
        yield an identical event sequence on any machine or worker.
        """
        process = ChurnProcess(spec, num_nodes, seed=seed)
        return cls(tuple(range(num_nodes)), process.initial, process.events)

    def crash_events(self) -> tuple:
        return tuple(event for event in self.events
                     if event.action == "crash")


@dataclass(frozen=True)
class BoundaryOutcome:
    """Net committee change applied at one epoch boundary.

    A node that both joined and left inside the same window appears in
    neither list (it never served an epoch); ``departed`` are graceful
    leaves, ``crashed`` permanent fail-stops -- both are removed.
    """

    joined: tuple = ()
    departed: tuple = ()
    crashed: tuple = ()

    @property
    def changed(self) -> bool:
        return bool(self.joined or self.departed or self.crashed)


class MembershipController:
    """Applies a :class:`MembershipSchedule` to one streaming deployment.

    Owned by :class:`repro.testbed.streaming.StreamingRun`; see the module
    docstring for the boundary protocol.  The controller is the single owner
    of committee state: ``deployment.runtimes`` always holds exactly the
    current committee's runtimes (standby nodes keep their ``NetworkNode``
    -- arrivals continue into their mempools -- but no protocol stack).
    """

    def __init__(self, schedule: MembershipSchedule, deployment,
                 seed: int = 0) -> None:
        self.schedule = schedule
        self.deployment = deployment
        self.seed = seed
        self.committee: set[int] = set(schedule.initial)
        self._next_event = 0
        #: how many times the committee runtimes were rebuilt (keys the
        #: fresh per-reconfiguration CryptoSuite RNG streams)
        self.reconfig_index = 0
        #: transactions moved out of departed nodes' mempools (telemetry)
        self.redistributed = 0

    @property
    def members(self) -> tuple:
        """The current committee, sorted (committee-local id order)."""
        return tuple(sorted(self.committee))

    # -------------------------------------------------------------- lifecycle
    def install(self) -> None:
        """Install crash events on the simulator and strip standby stacks.

        Called once before the stream starts.  With ``initial == universe``
        and no crash events this does nothing at all -- the inertness the
        no-churn bit-identity test pins.
        """
        deployment = self.deployment
        for event in self.schedule.crash_events():
            node = deployment.nodes[event.node_id]
            deployment.sim.schedule_at(event.at_s, node.crash)
        standby = set(deployment.runtimes) - self.committee
        if standby:
            # Standby nodes keep their radio but run no protocol stack; the
            # initial committee then needs runtimes sized to *its* n, not
            # the universe's.
            self.reconfigure(released_roots=())

    def advance(self, now: float) -> BoundaryOutcome:
        """Apply schedule events due by ``now`` under the admission rule.

        Events sharing one ``at_s`` form an atomic group (a crash and its
        replacement join apply together).  Groups are admitted in order
        while their removals fit the boundary's budget -- ``f`` of the
        boundary-entry committee; the first group over budget defers, along
        with everything after it, to the next boundary.  Because admitted
        state is always a whole-group prefix of the validated schedule, the
        committee can never end a boundary below :data:`QUORUM_FLOOR`.
        """
        previous = set(self.committee)
        last_removal: dict[int, str] = {}
        events = self.schedule.events
        removal_budget = faults_tolerated(len(self.committee))
        while self._next_event < len(events):
            at_s = events[self._next_event].at_s
            if at_s > now:
                break
            group_end = self._next_event
            while group_end < len(events) and events[group_end].at_s == at_s:
                group_end += 1
            group = events[self._next_event:group_end]
            removals = sum(1 for event in group if event.action != "join")
            if removals > removal_budget:
                break  # defer this group (and everything after it)
            removal_budget -= removals
            for event in group:
                if event.action == "join":
                    self.committee.add(event.node_id)
                else:
                    self.committee.discard(event.node_id)
                    last_removal[event.node_id] = event.action
            self._next_event = group_end
        # Net deltas against the boundary-entry committee: a same-window
        # join+leave of one node cancels out entirely.
        net_joined = self.committee - previous
        removed = previous - self.committee
        net_crashed = {n for n in removed if last_removal.get(n) == "crash"}
        if len(self.committee) < QUORUM_FLOOR:  # pragma: no cover - guarded
            raise DeploymentError(
                f"membership advance left a committee of "
                f"{len(self.committee)} (< {QUORUM_FLOOR})")
        return BoundaryOutcome(joined=tuple(sorted(net_joined)),
                               departed=tuple(sorted(removed - net_crashed)),
                               crashed=tuple(sorted(net_crashed)))

    def reconfigure(self, released_roots=()) -> None:
        """Rebuild the committee's runtimes for the current membership.

        Keys come from the dealer cache under the committee domain; every
        member gets a fresh transport/router with ``released_roots`` (the
        checkpointed epochs) pre-released, so late frames for old epochs hit
        the released-tag fast path instead of buffering.  Old stacks --
        departed *and* surviving, since survivors change committee-local id
        and keyring -- are closed: a departed node's closed transport still
        takes its frames, but hands them to nobody.
        """
        deployment = self.deployment
        scenario = deployment.scenario
        members = self.members
        n = len(members)
        self.reconfig_index += 1
        for runtime in deployment.runtimes.values():
            runtime.close()
        domain = deal_crypto_domain(
            n, stable_seed(self.seed, "cluster", 0),
            domain=("committee",) + members)
        channel_name = scenario.topology.clusters[0].channel_name
        new_runtimes: dict[int, DomainRuntime] = {}
        for local_id, global_id in enumerate(members):
            # The harness's one stack recipe, on fresh per-reconfiguration
            # RNG streams.
            runtime = _build_stack(
                deployment, deployment.nodes[global_id], local_id, n, domain,
                scenario.transport, (channel_name, None),
                random.Random(stable_seed(
                    self.seed, "membership-crypto", self.reconfig_index,
                    global_id)),
                random.Random(stable_seed(
                    self.seed, "membership-component", self.reconfig_index,
                    global_id)))
            for root in released_roots:
                runtime.router.release_tag(root)
                runtime.transport.release_tag(root)
            new_runtimes[global_id] = runtime
        deployment.runtimes.clear()
        deployment.runtimes.update(new_runtimes)
