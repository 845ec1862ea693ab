"""Scenario-robustness experiment family: time-varying network packs.

One spec family over :func:`repro.testbed.streaming.run_streaming_consensus`
driven by the declarative scenario packs of
:mod:`repro.testbed.scenario_packs`: every cell streams a protocol through a
pack's phase timeline (nominal -> degraded -> healed) and emits one row per
phase -- a throughput-vs-phase timeline -- while gating on the full
conformance suite plus the two scenario invariants (ledger-digest continuity
and bounded-epoch recovery after every heal boundary).

The claim checks encode the robustness contract of the quality-tier packs:
degradation must actually be *observed* (some degraded phase inflates
latency or drops traffic), every phase of every pack must be covered by the
timeline, and after healing the committed throughput must recover to at
least 90% of the pack's opening-phase baseline.

Like every other spec, cells are pure functions of their params: metrics are
virtual-time only, so RESULTS.json stays byte-reproducible across reruns and
worker counts.
"""

from __future__ import annotations

from repro.expts.judged import judged_stream
from repro.expts.registry import register
from repro.expts.specs import ExperimentSpec
from repro.testbed.scenario_packs import available_packs, load_pack
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec
from repro.testbed.workload import ArrivalSpec

SCENARIO_PROTOCOLS = ("honeybadger-sc", "beat")
SCENARIO_SEED = 2026
SCENARIO_EPOCHS = 16
SCENARIO_BATCH = 4
#: virtual-time budget: every shipped pack's timeline fits well inside this
SCENARIO_TIMEOUT_S = 3000.0
#: the recovery contract checked over the emitted timelines: committed
#: throughput in the healed tail must reach this fraction of the
#: opening-phase baseline
RECOVERY_FRACTION = 0.9


def scenario_cell(params: dict) -> list:
    """Stream one protocol through one pack; one row per pack phase."""
    pack = load_pack(params["pack"])
    scenario = Scenario.single_hop(4).replace(timeout_s=SCENARIO_TIMEOUT_S)
    spec = StreamingSpec(
        epochs=SCENARIO_EPOCHS, batch_size=SCENARIO_BATCH, warmup=64,
        arrival=ArrivalSpec(rate_tps=1.0, transaction_bytes=32,
                            max_mempool=512))
    result = judged_stream(f"{params['protocol']} x {pack.name}",
                           params["protocol"], scenario, spec, SCENARIO_SEED,
                           pack=pack)
    return [[params["protocol"], pack.name, record.index, record.name,
             int(record.degraded), record.epochs,
             record.committed_transactions,
             round(record.throughput_tps, 3),
             round(record.p50_latency_s, 3), record.adversary_drops]
            for record in result.phases]


def _timelines(rows: list) -> dict:
    """Rows regrouped per (protocol, pack), ordered by phase index."""
    curves: dict = {}
    for row in rows:
        curves.setdefault((row[0], row[1]), []).append(row)
    for curve in curves.values():
        curve.sort(key=lambda row: row[2])
    return curves


def check_recovery_to_baseline(rows: list) -> None:
    """After healing, throughput recovers to >= 90% of the opening phase.

    Applies to every timeline whose final phase is non-degraded and whose
    opening phase committed anything (always-nominal packs pass vacuously).
    """
    curves = _timelines(rows)
    assert curves, "no scenario timelines emitted"
    for (protocol, pack), curve in curves.items():
        first, last = curve[0], curve[-1]
        if last[4] or not first[7]:
            continue
        assert last[7] >= RECOVERY_FRACTION * first[7], (
            f"{protocol} x {pack}: healed throughput {last[7]} < "
            f"{RECOVERY_FRACTION} x baseline {first[7]}")


def check_degradation_observed(rows: list) -> None:
    """Degraded phases visibly hurt: across the matrix, some degraded phase
    drops adversary traffic or inflates p50 latency past its own pack's
    opening phase."""
    curves = _timelines(rows)
    degraded_exists = False
    observed = False
    for curve in curves.values():
        baseline_p50 = curve[0][8]
        for row in curve:
            if not row[4]:
                continue
            degraded_exists = True
            if row[9] > 0 or (row[5] and row[8] > baseline_p50):
                observed = True
    assert not degraded_exists or observed, (
        "no degraded phase showed drops or latency inflation")


def check_phases_cover_pack(rows: list) -> None:
    """The timeline covers every phase of every swept pack, and both the
    opening and healed-tail phases actually carried epochs."""
    curves = _timelines(rows)
    for (protocol, pack_name), curve in curves.items():
        pack = load_pack(pack_name)
        names = [row[3] for row in curve]
        expected = [phase.name for phase in pack.phases]
        assert names == expected, (
            f"{protocol} x {pack_name}: phases {names} != {expected}")
        assert curve[0][5] >= 1, (
            f"{protocol} x {pack_name}: opening phase carried no epochs")
        assert curve[-1][5] >= 1, (
            f"{protocol} x {pack_name}: final phase carried no epochs")


SCENARIO_ROBUSTNESS = register(ExperimentSpec(
    spec_id="scenario-robustness",
    paper_anchor="Section VI-C (extended)",
    title="Degradation and recovery under time-varying network scenarios",
    description=(
        "Multi-epoch streams driven by declarative scenario packs -- phase "
        "timelines of link degradation (loss bursts, latency inflation, "
        "jitter amplification) and partitions installed and retired on the "
        "virtual-time axis.  Each row is one pack phase: committed "
        "throughput, median epoch latency and adversary drops attributed to "
        "the epochs that started inside the phase.  Every cell gates on the "
        "safety/liveness conformance suite plus ledger-digest continuity "
        "and the bounded-epoch recovery invariant, and the claim checks "
        "require healed-tail throughput to recover to >= 90% of the "
        "opening-phase baseline."),
    headers=("protocol", "pack", "phase", "phase name", "degraded",
             "epochs", "committed tx", "tput tx/s", "p50 epoch s", "drops"),
    schema=("str", "str", "int", "str", "int", "int", "int", "float",
            "float", "int"),
    cell_fn=scenario_cell,
    grid=tuple({"protocol": protocol, "pack": pack}
               for protocol in SCENARIO_PROTOCOLS
               for pack in available_packs()),
    quick_grid=(
        {"protocol": "honeybadger-sc", "pack": "variable-link"},
        {"protocol": "honeybadger-sc", "pack": "intermittent-connectivity"},
        {"protocol": "beat", "pack": "burst-loss"},
    ),
    checks=(check_recovery_to_baseline, check_degradation_observed,
            check_phases_cover_pack),
    bindings={"protocols": ", ".join(SCENARIO_PROTOCOLS),
              "topology": "single-hop N=4 (paper profile)",
              "packs": ", ".join(available_packs()),
              "workload": "open-loop 1 tx/s, 32 B tx, mempool cap 512, "
                          "16 epochs",
              "seed": str(SCENARIO_SEED)},
    cell_budget_s=180.0,
))
