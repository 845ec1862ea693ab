"""Tier-1 coverage for the dynamic-membership layer.

Pins the membership layer's four contracts:

* **deterministic expansion** -- the same ``(ChurnSpec, num_nodes, seed)``
  always expands to the identical event sequence, and the simulator RNG is
  never touched: a run under a no-event schedule is bit-identical (digests
  *and* ``sim_events``) to a schedule-free run;
* **validated schedules** -- anything structurally unsound (quorum dip,
  join of an active node, leave of a non-member, bad spec fields) raises
  ``ValueError`` naming the offending field at construction time;
* **boundary semantics** -- group-atomic admission under the bounded-churn
  rule, net deltas (a same-window join+leave cancels), shrink to exactly
  3f+1, permanent crash with standby replacement;
* **scoped entry points** -- churn is streaming + single-hop + unpipelined
  only; every other combination is rejected loudly.
"""

import pytest

from repro.testbed.harness import DeploymentError, build_deployment, run_consensus
from repro.testbed.membership import (
    QUORUM_FLOOR,
    MembershipController,
    MembershipEvent,
    MembershipSchedule,
)
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ArrivalSpec, ChurnProcess, ChurnSpec
from tests.helpers import epoch_digests

FAST = ArrivalSpec(rate_tps=4.0, transaction_bytes=32, max_mempool=512)


def small_spec(**overrides) -> StreamingSpec:
    defaults = dict(epochs=3, batch_size=3, arrival=FAST, warmup=12)
    defaults.update(overrides)
    return StreamingSpec(**defaults)


class TestChurnExpansion:
    CHURN = ChurnSpec(initial_size=5, join_rate=0.05, leave_rate=0.05,
                      crash_times=(30.0,), horizon_s=200.0)

    def test_same_seed_same_events(self):
        a = MembershipSchedule.from_churn(self.CHURN, 7, seed=11)
        b = MembershipSchedule.from_churn(self.CHURN, 7, seed=11)
        assert a.events == b.events
        assert a.initial == b.initial
        assert a.universe == b.universe

    def test_different_seed_different_events(self):
        a = MembershipSchedule.from_churn(self.CHURN, 7, seed=11)
        b = MembershipSchedule.from_churn(self.CHURN, 7, seed=12)
        assert a.events != b.events

    def test_crash_times_always_present(self):
        schedule = MembershipSchedule.from_churn(self.CHURN, 7, seed=3)
        crashes = schedule.crash_events()
        assert len(crashes) == 1 and crashes[0].at_s == 30.0

    def test_expansion_never_violates_validation(self):
        # Whatever the seed, the expanded schedule must construct cleanly
        # (ChurnProcess skips events that would dip below QUORUM_FLOOR).
        for seed in range(25):
            MembershipSchedule.from_churn(self.CHURN, 7, seed=seed)

    def test_spec_field_validation(self):
        with pytest.raises(ValueError, match="initial_size"):
            ChurnSpec(initial_size=3)
        with pytest.raises(ValueError, match="join_rate"):
            ChurnSpec(join_rate=-1.0)
        with pytest.raises(ValueError, match="crash_times"):
            ChurnSpec(crash_times=(0.0,))


class TestScheduleValidation:
    def test_below_quorum_floor_rejected(self):
        with pytest.raises(ValueError, match="events"):
            MembershipSchedule(range(5), range(4),
                               events=((10.0, "leave", 3),))

    def test_same_instant_replacement_never_dips(self):
        # crash + same-instant join is one group: 4 -> 4, not 4 -> 3 -> 4.
        schedule = MembershipSchedule(
            range(5), range(4),
            events=((10.0, "crash", 3), (10.0, "join", 4)))
        assert len(schedule.events) == 2

    def test_initial_below_floor_rejected(self):
        with pytest.raises(ValueError, match="initial"):
            MembershipSchedule(range(5), range(3))

    def test_initial_outside_universe_rejected(self):
        with pytest.raises(ValueError, match="initial"):
            MembershipSchedule(range(4), (0, 1, 2, 9))

    def test_join_of_active_node_rejected(self):
        with pytest.raises(ValueError, match="join of already-active"):
            MembershipSchedule(range(5), range(4),
                               events=((5.0, "join", 2),))

    def test_rejoin_of_crashed_node_rejected(self):
        with pytest.raises(ValueError, match="permanently-crashed"):
            MembershipSchedule(
                range(6), range(5),
                events=((5.0, "crash", 4), (9.0, "join", 4)))

    def test_leave_of_non_member_rejected(self):
        with pytest.raises(ValueError, match="non-member"):
            MembershipSchedule(range(6), range(4),
                               events=((5.0, "leave", 5),))

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            MembershipSchedule(
                range(6), range(5),
                events=((9.0, "leave", 4), (5.0, "join", 5)))

    def test_event_field_validation(self):
        with pytest.raises(ValueError, match="at_s"):
            MembershipEvent(0.0, "join", 1)
        with pytest.raises(ValueError, match="unknown action"):
            MembershipEvent(1.0, "reboot", 1)


def controller_for(schedule, num_nodes=6):
    scenario = Scenario.single_hop(num_nodes)
    deployment = build_deployment(scenario, seed=0)
    return MembershipController(schedule, deployment, seed=0)


class TestBoundarySemantics:
    def test_join_and_leave_same_window_cancels(self):
        schedule = MembershipSchedule(
            range(6), range(5),
            events=((5.0, "join", 5), (8.0, "leave", 5)))
        controller = controller_for(schedule)
        outcome = controller.advance(now=10.0)
        assert not outcome.changed
        assert controller.members == (0, 1, 2, 3, 4)

    def test_net_deltas_reported(self):
        schedule = MembershipSchedule(
            range(6), range(5),
            events=((5.0, "crash", 1), (8.0, "join", 5)))
        controller = controller_for(schedule)
        outcome = controller.advance(now=10.0)
        assert outcome.crashed == (1,)
        assert outcome.joined == (5,)
        assert outcome.departed == ()
        assert controller.members == (0, 2, 3, 4, 5)

    def test_admission_defers_over_budget_groups(self):
        # f(6) = 1: the second removal group must wait for the next boundary.
        schedule = MembershipSchedule(
            range(7), range(6),
            events=((5.0, "leave", 5), (6.0, "leave", 4), (7.0, "join", 6)))
        controller = controller_for(schedule, num_nodes=7)
        first = controller.advance(now=10.0)
        assert first.departed == (5,)
        assert controller.members == (0, 1, 2, 3, 4)
        second = controller.advance(now=10.0)
        assert second.departed == (4,)
        assert second.joined == (6,)
        assert controller.members == (0, 1, 2, 3, 6)

    def test_shrink_stops_at_quorum_floor(self):
        schedule = MembershipSchedule(
            range(5), range(5), events=((5.0, "leave", 4),))
        controller = controller_for(schedule, num_nodes=5)
        outcome = controller.advance(now=10.0)
        assert outcome.departed == (4,)
        assert len(controller.members) == QUORUM_FLOOR


class TestStreamingIntegration:
    def test_no_churn_schedule_is_bit_identical_to_schedule_free(self):
        scenario = Scenario.single_hop(4)
        spec = small_spec()
        empty = MembershipSchedule(range(4), range(4))
        plain = run_streaming_consensus("honeybadger-sc", scenario, spec,
                                        seed=5)
        under_schedule = run_streaming_consensus(
            "honeybadger-sc", scenario, spec, seed=5, membership=empty)
        assert epoch_digests(plain) == epoch_digests(under_schedule)
        assert plain.ledger_digest == under_schedule.ledger_digest
        assert plain.sim_events == under_schedule.sim_events
        assert under_schedule.committees  # the trail is still recorded

    def test_crash_with_replacement_reconfigures(self):
        churn = ChurnSpec(initial_size=4, crash_times=(40.0,), horizon_s=100.0)
        scenario = Scenario.single_hop(5).with_membership(churn)
        result = run_streaming_consensus("honeybadger-sc", scenario,
                                         small_spec(epochs=6), seed=7)
        assert result.decided
        assert result.reconfigurations >= 1
        crashed = [n for record in result.committees for n in record.crashed]
        joined = [n for record in result.committees for n in record.joined]
        assert len(crashed) == 1 and len(joined) == 1
        assert result.committees[-1].size == 4

    def test_replay_is_deterministic(self):
        churn = ChurnSpec(initial_size=4, crash_times=(40.0,), horizon_s=100.0)
        scenario = Scenario.single_hop(5).with_membership(churn)
        a = run_streaming_consensus("honeybadger-sc", scenario,
                                    small_spec(epochs=5), seed=9)
        b = run_streaming_consensus("honeybadger-sc", scenario,
                                    small_spec(epochs=5), seed=9)
        assert epoch_digests(a) == epoch_digests(b)
        assert a.ledger_digest == b.ledger_digest
        assert a.sim_events == b.sim_events
        assert a.committees == b.committees

    def test_multi_hop_scenario_rejected(self):
        churn = ChurnSpec(join_rate=0.01, horizon_s=50.0)
        scenario = Scenario.multi_hop(2, 4).with_membership(churn)
        with pytest.raises(DeploymentError, match="single-hop"):
            run_streaming_consensus("honeybadger-sc", scenario, small_spec())

    def test_pipelined_stream_rejected(self):
        churn = ChurnSpec(join_rate=0.01, horizon_s=50.0)
        scenario = Scenario.single_hop(5).with_membership(churn)
        with pytest.raises(ValueError, match="pipeline_depth"):
            run_streaming_consensus("honeybadger-sc", scenario,
                                    small_spec(pipeline_depth=1))

    def test_universe_mismatch_rejected(self):
        schedule = MembershipSchedule(range(5), range(4))
        with pytest.raises(ValueError, match="universe"):
            run_streaming_consensus("honeybadger-sc", Scenario.single_hop(4),
                                    small_spec(), membership=schedule)

    def test_one_epoch_entry_point_rejects_churn(self):
        churn = ChurnSpec(join_rate=0.01, horizon_s=50.0)
        scenario = Scenario.single_hop(5).with_membership(churn)
        with pytest.raises(DeploymentError, match="streaming"):
            run_consensus("honeybadger-sc", scenario, seed=0)


class TestChurnProcessProperties:
    def test_leaves_respect_min_size(self):
        spec = ChurnSpec(initial_size=4, leave_rate=0.5, horizon_s=100.0)
        process = ChurnProcess(spec, 5, seed=2)
        active = set(process.initial)
        for _, action, node_id in process.events:
            if action == "join":
                active.add(node_id)
            else:
                active.discard(node_id)
            assert len(active) >= 4

    def test_graceful_leavers_can_rejoin_crashed_cannot(self):
        spec = ChurnSpec(initial_size=4, join_rate=0.3, leave_rate=0.3,
                         crash_times=(20.0,), horizon_s=300.0)
        process = ChurnProcess(spec, 6, seed=4)
        crashed = {node_id for _, action, node_id in process.events
                   if action == "crash"}
        for at_s, action, node_id in process.events:
            if action == "join":
                assert node_id not in crashed or at_s <= min(
                    t for t, a, n in process.events
                    if a == "crash" and n == node_id)
