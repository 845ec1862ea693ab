"""Tier-1 tests for the declarative scenario-pack subsystem.

Covers the pack schema validator (malformed packs must be rejected loudly,
naming the offending field), the shipped pack library, phase bookkeeping
(attribution, heal times, bounds), the determinism contract (same pack +
seed -> identical results; the baseline-perfect pack is bit-identical to no
scenario at all), and -- under the ``campaign`` marker -- an end-to-end
sweep of every shipped pack through the streaming runner gated on the
degradation/recovery invariants.
"""

import json
import math
from types import SimpleNamespace

import pytest

from repro.testbed.invariants import RunObserver, check_all, heal_times
from repro.testbed.scenario_packs import (
    PackValidationError,
    ScenarioPack,
    ScenarioPhase,
    available_packs,
    load_pack,
    pack_from_dict,
)
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ArrivalSpec


def _pack_dict(**overrides):
    data = {
        "name": "test-pack",
        "description": "a test pack",
        "phases": [
            {"name": "nominal", "duration_s": 30.0},
            {"name": "degraded", "duration_s": 20.0, "drop_rate": 0.2},
            {"name": "healed", "duration_s": 40.0},
        ],
    }
    data.update(overrides)
    return data


class TestPackValidation:
    def test_valid_pack_loads(self):
        pack = pack_from_dict(_pack_dict())
        assert pack.name == "test-pack"
        assert [phase.name for phase in pack.phases] == [
            "nominal", "degraded", "healed"]
        assert pack.total_duration_s == 90.0

    def test_unknown_pack_key_rejected(self):
        with pytest.raises(PackValidationError, match="bogus"):
            pack_from_dict(_pack_dict(bogus=1))

    def test_unknown_phase_key_rejected(self):
        data = _pack_dict()
        data["phases"][1]["drop_rte"] = 0.2
        with pytest.raises(PackValidationError, match="drop_rte"):
            pack_from_dict(data)

    @pytest.mark.parametrize("missing", ["name", "description", "phases"])
    def test_missing_required_key_rejected(self, missing):
        data = _pack_dict()
        del data[missing]
        with pytest.raises(PackValidationError, match=missing):
            pack_from_dict(data)

    @pytest.mark.parametrize("field,value", [
        ("duration_s", 0.0),
        ("duration_s", -5.0),
        ("drop_rate", 1.5),
        ("drop_rate", -0.1),
        ("duplicate_rate", 2.0),
        ("reorder_jitter_s", -1.0),
        ("extra_latency_s", -0.5),
        ("jitter_scale", -1.0),
        ("partition_split", 0.0),
        ("partition_split", 1.0),
        ("partition_split", -0.25),
    ])
    def test_out_of_range_phase_field_rejected(self, field, value):
        data = _pack_dict()
        data["phases"][1][field] = value
        with pytest.raises(PackValidationError, match=field):
            pack_from_dict(data)

    def test_boolean_masquerading_as_number_rejected(self):
        data = _pack_dict()
        data["phases"][1]["drop_rate"] = True
        with pytest.raises(PackValidationError, match="drop_rate"):
            pack_from_dict(data)

    def test_duplicate_phase_names_rejected(self):
        data = _pack_dict()
        data["phases"][2]["name"] = "nominal"
        with pytest.raises(PackValidationError, match="nominal"):
            pack_from_dict(data)

    def test_empty_phase_list_rejected(self):
        with pytest.raises(PackValidationError, match="phases"):
            pack_from_dict(_pack_dict(phases=[]))

    def test_explicit_start_overlapping_previous_phase_rejected(self):
        data = _pack_dict()
        data["phases"][1]["start_s"] = 20.0  # phase 0 runs to 30.0
        with pytest.raises(PackValidationError, match="overlap"):
            pack_from_dict(data)

    def test_explicit_start_leaving_a_gap_rejected(self):
        data = _pack_dict()
        data["phases"][1]["start_s"] = 45.0
        with pytest.raises(PackValidationError, match="gap"):
            pack_from_dict(data)

    def test_explicit_consistent_starts_accepted(self):
        data = _pack_dict()
        data["phases"][0]["start_s"] = 0.0
        data["phases"][1]["start_s"] = 30.0
        data["phases"][2]["start_s"] = 50.0
        assert pack_from_dict(data).phase_starts() == (0.0, 30.0, 50.0)

    def test_negative_explicit_start_rejected(self):
        data = _pack_dict()
        data["phases"][0]["start_s"] = -1.0
        with pytest.raises(PackValidationError, match="start_s"):
            pack_from_dict(data)

    def test_non_bool_degraded_rejected(self):
        data = _pack_dict()
        data["phases"][1]["degraded"] = 1
        with pytest.raises(PackValidationError, match="degraded"):
            pack_from_dict(data)

    def test_unknown_pack_name_rejected(self):
        with pytest.raises(PackValidationError, match="no-such-pack"):
            load_pack("no-such-pack")

    def test_malformed_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(PackValidationError, match="broken"):
            load_pack(str(path))

    def test_pack_file_path_loads(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(_pack_dict(name="custom")))
        assert load_pack(str(path)).name == "custom"


class TestScenarioPhase:
    def test_is_degraded_derived_from_effects(self):
        assert not ScenarioPhase(name="clean", duration_s=10.0).is_degraded
        assert ScenarioPhase(name="lossy", duration_s=10.0,
                             drop_rate=0.1).is_degraded
        assert ScenarioPhase(name="cut", duration_s=10.0,
                             partition_split=0.5).is_degraded
        assert ScenarioPhase(name="slow", duration_s=10.0,
                             extra_latency_s=0.2).is_degraded
        assert ScenarioPhase(name="jittery", duration_s=10.0,
                             jitter_scale=4.0).is_degraded

    def test_is_degraded_explicit_override(self):
        phase = ScenarioPhase(name="leo", duration_s=10.0,
                              extra_latency_s=0.05, degraded=False)
        assert not phase.is_degraded

    def test_partition_groups_cover_all_nodes_two_ways(self):
        phase = ScenarioPhase(name="cut", duration_s=10.0,
                              partition_split=0.5)
        partition = phase.partition(5.0, 15.0, range(4))
        assert partition.groups == (frozenset({0, 1}), frozenset({2, 3}))
        assert partition.start_s == 5.0 and partition.heal_s == 15.0

    def test_partition_split_never_empties_a_side(self):
        phase = ScenarioPhase(name="cut", duration_s=10.0,
                              partition_split=0.01)
        partition = phase.partition(0.0, 10.0, range(4))
        assert all(group for group in partition.groups)

    def test_final_phase_windows_are_unbounded(self):
        phase = ScenarioPhase(name="tail", duration_s=10.0, drop_rate=0.5,
                              partition_split=0.5)
        assert phase.link_fault(100.0, math.inf).end_s is None
        assert phase.partition(100.0, math.inf, range(4)).heal_s is None


class TestShippedPacks:
    def test_expected_library(self):
        assert available_packs() == (
            "baseline-perfect", "burst-loss", "congestion-collapse",
            "intermittent-connectivity", "mobile-handoff", "partition-storm",
            "satellite-geo", "variable-link")

    @pytest.mark.parametrize("name", available_packs())
    def test_every_shipped_pack_validates(self, name):
        pack = load_pack(name)
        assert pack.name == name
        assert pack.description
        assert pack.total_duration_s > 0
        assert pack.eventual_delivery_holds()

    def test_heal_times(self):
        def heals(name):
            # each phase's start and degraded flag, as its PhaseRecord
            # carries them
            pack = load_pack(name)
            return heal_times([
                SimpleNamespace(start_s=start_s, degraded=phase.is_degraded)
                for phase, start_s in zip(pack.phases, pack.phase_starts())])

        assert heals("baseline-perfect") == ()
        assert heals("variable-link") == (90.0,)
        assert heals("burst-loss") == (50.0, 100.0)
        assert heals("intermittent-connectivity") == (55.0, 110.0)
        assert heals("partition-storm") == (83.0,)

    def test_phase_bounds(self):
        pack = load_pack("variable-link")  # 40 / 50 / 60 second phases
        # the final phase is open-ended
        assert pack.phase_bounds() == ((0.0, 40.0), (40.0, 90.0),
                                       (90.0, math.inf))

    def test_phase_bounds_are_contiguous(self):
        for name in available_packs():
            bounds = load_pack(name).phase_bounds()
            assert bounds[0][0] == 0.0
            for (_, end), (start, _) in zip(bounds, bounds[1:]):
                assert end == start
            assert bounds[-1][1] == math.inf


def _stream(pack, protocol="honeybadger-sc", epochs=6, seed=2026):
    scenario = Scenario.single_hop(4).replace(timeout_s=3000.0)
    spec = StreamingSpec(
        epochs=epochs, batch_size=4, warmup=64,
        arrival=ArrivalSpec(rate_tps=1.0, transaction_bytes=32,
                            max_mempool=512))
    observer = RunObserver()
    result = run_streaming_consensus(protocol, scenario, spec, seed=seed,
                                     observer=observer, pack=pack)
    return result, observer, scenario


class TestDeterminism:
    def test_same_pack_and_seed_reproduce_bit_identically(self):
        first, _, _ = _stream(load_pack("variable-link"))
        second, _, _ = _stream(load_pack("variable-link"))
        assert first.ledger_digest == second.ledger_digest
        assert first.duration_s == second.duration_s
        assert first.sim_events == second.sim_events
        assert first.phases == second.phases

    def test_baseline_perfect_is_bit_identical_to_no_scenario(self):
        # The pinned identity anchor: a single-phase no-op pack schedules
        # zero controller events, so the run -- including the simulator
        # event count -- matches a plain stream exactly.
        with_pack, _, _ = _stream(load_pack("baseline-perfect"))
        without, _, _ = _stream(None)
        assert with_pack.ledger_digest == without.ledger_digest
        assert with_pack.duration_s == without.duration_s
        assert with_pack.sim_events == without.sim_events
        assert with_pack.per_epoch == without.per_epoch
        assert with_pack.scenario == "baseline-perfect"
        assert without.scenario == ""
        # the pack still yields a (single-phase) timeline
        assert len(with_pack.phases) == 1
        assert with_pack.phases[0].epochs == with_pack.epochs_completed

    def test_phase_records_partition_epochs_exactly(self):
        result, _, _ = _stream(load_pack("variable-link"), epochs=8)
        assert result.decided
        assert sum(record.epochs for record in result.phases) == \
            result.epochs_completed
        assert sum(record.committed_transactions
                   for record in result.phases) == \
            result.committed_transactions
        # the judge reads the pack's heal off the records alone
        assert heal_times(result.phases) == (90.0,)


@pytest.mark.campaign
class TestAllPacksEndToEnd:
    @pytest.mark.parametrize("name", available_packs())
    def test_pack_stream_passes_all_invariants(self, name):
        pack = load_pack(name)
        result, observer, scenario = _stream(pack, epochs=16)
        assert result.decided, f"{name}: stream stalled"
        verdicts = check_all(observer, result, scenario.timeout_s)
        assert [verdict.name for verdict in verdicts[-2:]] == \
            ["ledger-continuity", "scenario-recovery"]
        failed = [verdict for verdict in verdicts if not verdict.ok]
        assert not failed, f"{name}: {failed}"
        assert [record.name for record in result.phases] == \
            [phase.name for phase in pack.phases]
