"""Client-observed SLO experiment family: admission policy vs. offered load.

One spec family over :func:`repro.testbed.streaming.run_streaming_consensus`
with an :class:`~repro.testbed.ingress.IngressSpec` installed:

* ``slo-sweep`` -- offered load x admission policy on the gateway-class
  scale profile, three transaction classes (20% high-priority, 50%
  standard, 30% best-effort; DRR service shares 4:2:1), one row per class
  per cell carrying the admission dispositions and the **client-observed**
  submit->commit latency percentiles.  The claim checks pin the SLO story:
  past saturation, the gated policies keep the high-priority class's p99
  within :data:`SLO_HIGH_P99_BOUND_S` while best-effort transactions are
  measurably shed; the protected class itself is never shed; and every
  row's dispositions conserve its offered transactions.

Cells are pure functions of their params (virtual-time metrics only), so
RESULTS.json stays byte-reproducible across reruns and worker counts.
"""

from __future__ import annotations

from repro.expts.judged import judged_stream
from repro.expts.registry import register
from repro.expts.specs import ExperimentSpec
from repro.testbed.ingress import ingress_profile
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec
from repro.testbed.workload import ArrivalSpec

SLO_PROTOCOLS = ("honeybadger-sc", "beat")
SLO_SEED = 910
SLO_EPOCHS = 10
SLO_BATCH = 4
#: offered loads (tx/s, whole network) straddling the scale profile's ~45
#: tx/s saturation point (see the load-sweep family)
SLO_LOADS = (30.0, 120.0)
#: admission policies = the canned three-class ingress profiles
SLO_POLICIES = ("open", "shed", "defer")
#: the SLO: past saturation, high-priority client-observed p99 stays under
#: this many virtual seconds (an ungated best-effort tail grows well past it)
SLO_HIGH_P99_BOUND_S = 2.0
#: a cell is saturated when its deepest backlog exceeds this many epoch
#: batches (same classifier as the load-sweep family)
SLO_SATURATION_BACKLOG_BATCHES = 3


def slo_sweep_cell(params: dict) -> list:
    """One ingress streaming run; one row per transaction class."""
    ingress = ingress_profile(f"three-class-{params['policy']}")
    spec = StreamingSpec(
        epochs=SLO_EPOCHS, batch_size=SLO_BATCH,
        arrival=ArrivalSpec(rate_tps=params["offered_tps"],
                            transaction_bytes=48, max_mempool=256))
    scenario = Scenario.scale_single_hop(4)
    result = judged_stream(
        f"{params['protocol']} x {params['policy']} @ "
        f"{params['offered_tps']} tx/s", params["protocol"], scenario, spec,
        SLO_SEED, ingress=ingress)
    saturated = int(result.max_backlog
                    > SLO_SATURATION_BACKLOG_BATCHES * SLO_BATCH)
    rows = []
    for record in result.classes:
        assert record.duplicates == 0, (
            f"unique open-loop streams cannot collide, yet class "
            f"{record.name} saw {record.duplicates} duplicates")
        rows.append([
            params["protocol"], params["policy"], params["offered_tps"],
            record.name, record.offered, record.admitted, record.shed,
            record.deferred_pending, record.committed,
            round(record.p50_latency_s, 3), round(record.p99_latency_s, 3),
            saturated])
    return rows


def check_slo_conservation(rows: list) -> None:
    """Every row's dispositions conserve its offered transactions."""
    for row in rows:
        offered, admitted, shed, deferred = row[4], row[5], row[6], row[7]
        assert offered == admitted + shed + deferred, (
            f"{row[0]}/{row[1]}@{row[2]} class {row[3]}: offered {offered} "
            f"!= admitted {admitted} + shed {shed} + deferred {deferred}")


def _cells(rows: list) -> dict:
    """Rows regrouped per (protocol, policy, offered) -> {class: row}."""
    cells: dict = {}
    for row in rows:
        cells.setdefault((row[0], row[1], row[2]), {})[row[3]] = row
    return cells


def check_slo_high_priority_bounded_past_saturation(rows: list) -> None:
    """The headline claim: at least one gated cell past saturation keeps
    high-priority p99 within its bound *while* measurably shedding or
    deferring best-effort traffic."""
    witnesses = []
    for (protocol, policy, offered), classes in _cells(rows).items():
        if policy == "open" or "high" not in classes:
            continue
        high, best = classes["high"], classes.get("best-effort")
        saturated = high[11]
        displaced = best is not None and (best[6] + best[7]) > 0
        if saturated and displaced and high[10] <= SLO_HIGH_P99_BOUND_S:
            witnesses.append((protocol, policy, offered))
    assert witnesses, (
        f"no gated cell past saturation kept high-priority p99 <= "
        f"{SLO_HIGH_P99_BOUND_S}s while displacing best-effort traffic")


def check_slo_protected_class_never_shed(rows: list) -> None:
    """The protected class is never shed or deferred under any policy."""
    for row in rows:
        if row[3] == "high":
            assert row[6] == 0 and row[7] == 0, (
                f"{row[0]}/{row[1]}@{row[2]}: protected class shed={row[6]} "
                f"deferred={row[7]}")


def check_slo_open_policy_admits_everything(rows: list) -> None:
    """The ungated baseline admits every class in full (the contrast that
    makes the gated cells' shedding attributable to the gate)."""
    for row in rows:
        if row[1] == "open":
            assert row[6] == 0 and row[7] == 0, (
                f"open policy shed/deferred traffic: {row}")
            assert row[5] == row[4], (
                f"open policy admitted {row[5]} of {row[4]} offered: {row}")


SLO_SWEEP = register(ExperimentSpec(
    spec_id="slo-sweep",
    paper_anchor="Section VI-C (extended)",
    title="Client-observed SLOs: admission policy vs. offered load",
    description=(
        "Ingress streaming runs (10 epochs, batch<=4 tx/node/epoch, scale "
        "profile) with three transaction classes -- 20% high-priority, 50% "
        "standard, 30% best-effort; DRR service shares 4:2:1 -- swept "
        "across offered loads straddling saturation and the three canned "
        "admission policies (open gate, shed, defer; backlog threshold 24, "
        "high-priority protected).  Latencies are client-observed "
        "submit->commit percentiles per class.  Past saturation the gated "
        "policies shed or defer best-effort traffic while the "
        "high-priority p99 stays bounded; the open gate admits everything "
        "and lets every class's tail grow with the backlog."),
    headers=("protocol", "policy", "offered tx/s", "class", "offered",
             "admitted", "shed", "deferred", "committed", "p50 s", "p99 s",
             "saturated"),
    schema=("str", "str", "float", "str", "int", "int", "int", "int",
            "int", "float", "float", "int"),
    cell_fn=slo_sweep_cell,
    grid=tuple({"protocol": protocol, "policy": policy,
                "offered_tps": offered}
               for protocol in SLO_PROTOCOLS
               for policy in SLO_POLICIES
               for offered in SLO_LOADS),
    quick_grid=tuple({"protocol": "honeybadger-sc", "policy": policy,
                      "offered_tps": offered}
                     for policy in ("open", "shed")
                     for offered in SLO_LOADS),
    checks=(check_slo_conservation,
            check_slo_high_priority_bounded_past_saturation,
            check_slo_protected_class_never_shed,
            check_slo_open_policy_admits_everything),
    bindings={"protocols": ", ".join(SLO_PROTOCOLS),
              "topology": "single-hop N=4 (scale profile)",
              "workload": "aggregated class-marked arrivals, 48 B base tx, "
                          "mempool cap 256",
              "classes": "high 20% / standard 50% / best-effort 30%",
              "seed": str(SLO_SEED)},
    cell_budget_s=120.0,
))
