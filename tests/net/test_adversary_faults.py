"""Unit tests for the message-level fault layer of the asynchronous adversary."""

import random

import pytest

from repro.net.adversary import (
    AsyncAdversary,
    DelayModel,
    LinkFaultSpec,
    PartitionSpec,
)


class TestLinkFaultSpec:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            LinkFaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            LinkFaultSpec(duplicate_rate=-0.1)
        with pytest.raises(ValueError):
            LinkFaultSpec(reorder_jitter_s=-1.0)

    def test_applies_window_and_filters(self):
        fault = LinkFaultSpec(drop_rate=0.5, senders=frozenset({1}),
                              start_s=10.0, end_s=20.0)
        assert fault.applies(1, 15.0)
        assert not fault.applies(1, 5.0)        # before the window
        assert not fault.applies(1, 20.0)       # window end is exclusive
        assert not fault.applies(0, 15.0)       # wrong sender

    def test_unrestricted_fault_matches_everything(self):
        fault = LinkFaultSpec(drop_rate=0.1)
        assert fault.applies(0, 0.0)
        assert fault.applies(99, 1e6)

    def test_window_validation_names_offending_field(self):
        with pytest.raises(ValueError, match="start_s"):
            LinkFaultSpec(drop_rate=0.1, start_s=-1.0)
        with pytest.raises(ValueError, match="end_s"):
            LinkFaultSpec(drop_rate=0.1, start_s=10.0, end_s=5.0)
        with pytest.raises(ValueError, match="end_s"):
            LinkFaultSpec(drop_rate=0.1, start_s=10.0, end_s=10.0)


class TestPartitionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionSpec(groups=(frozenset({0, 1}),))
        with pytest.raises(ValueError):
            PartitionSpec(groups=(frozenset({0, 1}), frozenset({1, 2})))

    def test_window_validation_names_offending_field(self):
        groups = (frozenset({0}), frozenset({1}))
        with pytest.raises(ValueError, match="groups"):
            PartitionSpec(groups=(frozenset({0}), frozenset()))
        with pytest.raises(ValueError, match="start_s"):
            PartitionSpec(groups=groups, start_s=-2.0)
        with pytest.raises(ValueError, match="heal_s"):
            PartitionSpec(groups=groups, start_s=10.0, heal_s=10.0)

    def test_blocks_only_across_groups_while_active(self):
        partition = PartitionSpec(groups=(frozenset({0, 1}), frozenset({2, 3})),
                                  start_s=5.0, heal_s=25.0)
        assert partition.opinion(0, 2, 10.0) is True
        assert partition.opinion(3, 1, 10.0) is True
        assert partition.opinion(0, 1, 10.0) is not True   # same group
        assert partition.opinion(0, 2, 0.0) is not True    # not started
        assert partition.opinion(0, 2, 25.0) is not True   # healed
        assert partition.opinion(0, 9, 10.0) is not True   # node 9 unlisted

    def test_group_of(self):
        partition = PartitionSpec(groups=(frozenset({0}), frozenset({1})))
        assert partition.group_of(0) == 0
        assert partition.group_of(1) == 1
        assert partition.group_of(5) is None

    def test_opinion_abstains_when_inactive_or_not_covering(self):
        partition = PartitionSpec(groups=(frozenset({0}), frozenset({1})),
                                  start_s=5.0, heal_s=15.0)
        assert partition.opinion(0, 1, 10.0) is True
        assert partition.opinion(0, 1, 0.0) is None      # not started
        assert partition.opinion(0, 1, 15.0) is None     # healed
        assert partition.opinion(0, 9, 10.0) is None     # node 9 unlisted
        same = PartitionSpec(groups=(frozenset({0, 1}), frozenset({2})))
        assert same.opinion(0, 1, 0.0) is False          # explicitly together


class TestPlanDelivery:
    @staticmethod
    def adversary(**kwargs):
        return AsyncAdversary(delay_model=DelayModel(base_jitter_s=0.0), **kwargs)

    def test_fault_free_plan_is_single_copy(self):
        adversary = self.adversary()
        assert adversary.plan_delivery(0, 1, 0.0, random.Random(0)) == [0.0]

    def test_certain_drop(self):
        adversary = self.adversary(link_faults=[LinkFaultSpec(drop_rate=1.0)])
        assert adversary.plan_delivery(0, 1, 0.0, random.Random(0)) == []

    def test_certain_duplication(self):
        adversary = self.adversary(
            link_faults=[LinkFaultSpec(duplicate_rate=1.0)])
        plan = adversary.plan_delivery(0, 1, 0.0, random.Random(0))
        assert len(plan) == 2

    def test_reorder_jitter_delays_copies(self):
        adversary = self.adversary(
            link_faults=[LinkFaultSpec(reorder_jitter_s=5.0)])
        plan = adversary.plan_delivery(0, 1, 0.0, random.Random(1))
        assert len(plan) == 1 and 0.0 <= plan[0] <= 5.0

    def test_partition_drops_cross_group_frames(self):
        adversary = self.adversary(partitions=[PartitionSpec(
            groups=(frozenset({0}), frozenset({1})), heal_s=10.0)])
        assert adversary.plan_delivery(0, 1, 5.0, random.Random(0)) == []
        assert adversary.plan_delivery(0, 1, 10.0, random.Random(0)) == [0.0]

    def test_plan_is_deterministic_per_rng_state(self):
        adversary = self.adversary(link_faults=[LinkFaultSpec(
            drop_rate=0.3, duplicate_rate=0.3, reorder_jitter_s=1.0)])
        plans_a = [adversary.plan_delivery(0, 1, 0.0, random.Random(7))
                   for _ in range(5)]
        plans_b = [adversary.plan_delivery(0, 1, 0.0, random.Random(7))
                   for _ in range(5)]
        assert plans_a == plans_b

    def test_overlapping_partitions_latest_start_wins(self):
        # An older partition separates 0|1; a later one groups them back
        # together -- the later opinion must win while both are active.
        cut = PartitionSpec(groups=(frozenset({0}), frozenset({1})),
                            start_s=0.0, heal_s=100.0)
        rejoin = PartitionSpec(groups=(frozenset({0, 1}), frozenset({2})),
                               start_s=10.0, heal_s=50.0)
        adversary = self.adversary(partitions=[cut, rejoin])
        assert adversary.plan_delivery(0, 1, 5.0, random.Random(0)) == []
        assert adversary.plan_delivery(0, 1, 20.0, random.Random(0)) == [0.0]
        # after the later partition heals, the older cut applies again
        assert adversary.plan_delivery(0, 1, 60.0, random.Random(0)) == []

    def test_overlapping_partitions_tie_breaks_by_install_order(self):
        # Equal start times: the most recently installed partition wins.
        early = PartitionSpec(groups=(frozenset({0}), frozenset({1})),
                              start_s=0.0, heal_s=100.0)
        override = PartitionSpec(groups=(frozenset({0, 1}), frozenset({2})),
                                 start_s=0.0, heal_s=100.0)
        adversary = self.adversary(partitions=[early, override])
        assert adversary.plan_delivery(0, 1, 5.0, random.Random(0)) == [0.0]
        flipped = self.adversary(partitions=[override, early])
        assert flipped.plan_delivery(0, 1, 5.0, random.Random(0)) == []

    def test_abstaining_partition_defers_to_separating_one(self):
        # A later partition that does not list both endpoints must not mask
        # an earlier one that cuts them.
        cut = PartitionSpec(groups=(frozenset({0}), frozenset({1})),
                            start_s=0.0, heal_s=100.0)
        unrelated = PartitionSpec(groups=(frozenset({2}), frozenset({3})),
                                  start_s=10.0, heal_s=100.0)
        adversary = self.adversary(partitions=[cut, unrelated])
        assert adversary.plan_delivery(0, 1, 20.0, random.Random(0)) == []

    def test_remove_apis(self):
        fault = LinkFaultSpec(drop_rate=1.0)
        partition = PartitionSpec(groups=(frozenset({0}), frozenset({1})))
        adversary = self.adversary(link_faults=[fault],
                                   partitions=[partition])
        adversary.remove_link_fault(fault)
        adversary.remove_partition(partition)
        assert adversary.plan_delivery(0, 1, 0.0, random.Random(0)) == [0.0]
        with pytest.raises(ValueError):
            adversary.remove_link_fault(fault)
        with pytest.raises(ValueError):
            adversary.remove_partition(partition)

    def test_fault_free_stream_matches_legacy_delay(self):
        # With no faults installed, plan_delivery must consume exactly the
        # same RNG draws as the bare delay model (bit-identical replay of
        # pre-campaign seeds).
        model = DelayModel(base_jitter_s=0.01)
        adversary = AsyncAdversary(delay_model=model)
        rng_plan, rng_legacy = random.Random(3), random.Random(3)
        for _ in range(50):
            plan = adversary.plan_delivery(0, 1, 0.0, rng_plan)
            legacy = model.delay(0, 1, rng_legacy)
            assert plan == [legacy]


class TestEventualDelivery:
    def test_healed_partition_and_bounded_loss_are_admissible(self):
        adversary = AsyncAdversary(
            link_faults=[LinkFaultSpec(drop_rate=0.2)],
            partitions=[PartitionSpec(groups=(frozenset({0}), frozenset({1})),
                                      heal_s=30.0)])
        assert adversary.eventual_delivery_holds()

    def test_permanent_partition_violates_model(self):
        adversary = AsyncAdversary(partitions=[PartitionSpec(
            groups=(frozenset({0}), frozenset({1})))])
        assert not adversary.eventual_delivery_holds()

    def test_total_unbounded_drop_violates_model(self):
        adversary = AsyncAdversary(link_faults=[LinkFaultSpec(drop_rate=1.0)])
        assert not adversary.eventual_delivery_holds()
        infinite = AsyncAdversary(link_faults=[LinkFaultSpec(
            drop_rate=1.0, end_s=float("inf"))])
        assert not infinite.eventual_delivery_holds()
        bounded = AsyncAdversary(link_faults=[LinkFaultSpec(drop_rate=1.0,
                                                            end_s=10.0)])
        assert bounded.eventual_delivery_holds()


class TestDropTrace:
    def test_channel_records_adversary_drops(self):
        from repro.net.trace import NetworkTrace

        trace = NetworkTrace()
        trace.record_adversary_drop("ch0")
        trace.record_adversary_drop("ch0")
        assert trace.total_adversary_drops == 2
        assert trace.channels["ch0"].adversary_drops == 2
