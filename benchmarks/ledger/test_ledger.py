"""Tier-1 checks of the performance ledger (kept under three seconds)."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402  (needs the sys.path insertion)
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import REPRO_WRAP_POINTS, Tracer, TracerError, WrapPoint  # noqa: E402

from repro.net.sim import Simulator  # noqa: E402
from repro.testbed import dealer_cache  # noqa: E402
from repro.testbed.harness import run_consensus  # noqa: E402
from repro.testbed.scenarios import Scenario  # noqa: E402

CONTRACT = run.load_contract()


class FakeClock:
    """Advances only when the traced code says so: exact self-time sums."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_times_of_a_three_level_nest_sum_to_the_root():
    clock = FakeClock()
    tracer = Tracer(keep_spans=True, clock=clock)

    def leaf():
        clock.spend(0.5)

    traced_leaf = tracer.wrap("crypto", "sig", leaf)

    def middle():
        clock.spend(1.0)
        traced_leaf()
        traced_leaf()
        clock.spend(0.25)

    traced_middle = tracer.wrap("core", "send", middle)

    def root():
        clock.spend(2.0)
        traced_middle()
        clock.spend(1.0)

    tracer.call("testbed", "harness", "nest@1", root)
    totals = tracer.totals()
    assert totals[("crypto", "sig")] == (2, 1.0, 1.0)
    assert totals[("core", "send")] == (1, 2.25, 1.25)
    assert totals[("testbed", "harness")] == (1, 5.25, 3.0)
    layers = tracer.layer_totals()
    assert sum(t.self_s for t in layers.values()) == pytest.approx(
        totals[("testbed", "harness")].total_s, rel=0.01)
    # raw spans: the leaf's parent is the middle span, whose parent is the root
    names = [span[0] for span in tracer.spans]
    assert names == ["testbed.harness", "core.send", "crypto.sig", "crypto.sig"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1]
    assert {span[4] for span in tracer.spans} == {"nest@1"}


def test_patched_attributes_are_restored_after_an_exception():
    module = types.ModuleType("ledger_fake_owner")

    def boom():
        raise ValueError("boom")

    module.boom = boom
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        points = (WrapPoint("net", "event_loop", module.__name__, "boom"),)
        with pytest.raises(ValueError):
            with tracer.installed(points):
                assert module.boom is not boom
                module.boom()
        assert module.boom is boom
        assert tracer.totals()[("net", "event_loop")].calls == 1
        # a wrap point that does not resolve installs nothing
        with pytest.raises(TracerError):
            with tracer.installed(points + (
                    WrapPoint("net", "x", module.__name__, "missing"),)):
                pass
        assert module.boom is boom
    finally:
        del sys.modules[module.__name__]


@pytest.fixture
def memory_dealer_cache(monkeypatch):
    monkeypatch.setattr(dealer_cache.DEFAULT_DEALER_CACHE, "use_disk", False)
    # the calibration loop costs 0.2 s per pass at full length
    monkeypatch.setattr(run, "CALIBRATION_ROUNDS", 9)


def test_traced_run_equals_its_untraced_twin(memory_dealer_cache):
    scenario = Scenario.single_hop(4)
    untraced = run_consensus("honeybadger-sc", scenario, seed=11)
    tracer = Tracer()
    event_loop = Simulator.run_until
    with tracer.installed(REPRO_WRAP_POINTS):
        assert Simulator.run_until is not event_loop
        traced = tracer.call("testbed", "harness", "twin@11", run_consensus,
                             "honeybadger-sc", scenario, 8, 64, True, 11)
    assert Simulator.run_until is event_loop
    assert dataclasses.asdict(traced) == dataclasses.asdict(untraced)
    assert workloads.canonical(traced) == workloads.canonical(untraced)
    layers = tracer.layer_totals()
    assert set(layers) == set(run.LAYERS)
    root = tracer.totals()[("testbed", "harness")].total_s
    assert sum(t.self_s for t in layers.values()) == pytest.approx(root,
                                                                   rel=0.01)


def test_environment_violations_have_names(monkeypatch):
    monkeypatch.setattr(dealer_cache.DEFAULT_DEALER_CACHE, "use_disk", True)
    with pytest.raises(run.DealerCacheOnDisk):
        run.check_environment()


def test_emitted_names_match_the_contract(memory_dealer_cache):
    """Every metric and workload run.py emits is in BENCHMARK.json, and back."""
    cells = workloads.build("fig13a-n4")[:2]  # one batched/unbatched twin
    report = {"workload": "fig13a-n4", "seed": 21, "peak_rss_mb": 1.0,
              "cells": run.describe(cells)}
    timed = dict(report, passes=[run.run_pass(cells, 21 + offset)
                                 for offset in range(run.MIN_SEEDS)])
    traced_pass, trace = run.traced_pass(cells, 21)
    traced = dict(report, passes=[traced_pass], trace=trace)
    assert run.trace_mismatches(timed, traced) == []
    assert run.operations(timed) == (2 * run.MIN_SEEDS, 0)
    assert all(one_pass["host_slowdown"] > 0 for one_pass in timed["passes"])

    end_to_end = run.end_to_end_metrics(timed, [0.5, 0.7, 0.6])
    per_layer = run.per_layer_metrics(timed, traced)
    assert end_to_end["setup_s"] == 0.6
    assert set(end_to_end) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert set(per_layer) == {m["name"] for m in CONTRACT["per_layer"]}
    assert all(value for value in end_to_end.values()), end_to_end
    assert 0.0 < per_layer["virt.batching_latency_reduction"] < 1.0
    assert per_layer["core.channel_access_reduction"] > 1.0
    assert per_layer["net.sim_events"] > 0
    assert per_layer["failed_ops_ratio"] == 0.0

    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.NAMES)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in CONTRACT[section]:
            assert name.match(entry["name"]), entry
    assert run.fingerprint(timed) == run.fingerprint(json.loads(
        json.dumps(timed)))


def test_a_failed_operation_is_counted_not_hidden(memory_dealer_cache):
    def explode(seed):
        raise RuntimeError(f"no result for seed {seed}")

    record = run.run_cell(workloads.Cell("exploding", explode), 1)
    assert record["failure"].startswith("raised RuntimeError")
    undecided = run_consensus("honeybadger-sc", Scenario.single_hop(
        4, timeout_s=0.5), seed=3)
    assert workloads.failure(undecided) is not None


def ledger_file(wall, samples, fingerprint="f" * 64, events=100):
    return {"seed": 7000, "workloads": {"w": {
        "virt_fingerprint": fingerprint,
        "samples": {"wall_s": samples},
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "net.sim_events": {"value": events, "unit": "count"}}}}}


def test_compare_verdicts():
    contract = {"end_to_end": [{"name": "wall_s", "unit": "s",
                                "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "net.sim_events", "unit": "count",
                               "better": "lower"}]}
    tight = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    loose = [1.0, 2.0, 0.5, 1.6, 0.7, 1.9]

    def verdict_of(b_wall, b_samples=tight, **kwargs):
        rows, differences = compare.compare(
            ledger_file(1.0, tight), ledger_file(b_wall, b_samples, **kwargs),
            contract)
        return rows[0]["verdict"], rows[0]["note"], differences

    assert verdict_of(1.05)[0] == "same"
    assert verdict_of(1.2)[0] == "regressed"
    assert verdict_of(0.8)[0] == "improved"
    assert verdict_of(1.2, loose)[0] == "unresolved"
    assert verdict_of(1.05, loose)[0] == "unresolved"
    _verdict, note, differences = verdict_of(1.0, fingerprint="e" * 64,
                                             events=101)
    assert note == "model changed"
    assert [d[1] for d in differences] == ["virt_fingerprint", "net.sim_events"]
    assert compare.verdict(10.0, 8.0, "higher", 0.1) == "regressed"
    assert compare.verdict(10.0, 12.0, "higher", 0.1) == "improved"
