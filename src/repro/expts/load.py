"""Sustained-load experiment family: load sweeps and pipelining (streaming).

Two spec families over :func:`repro.testbed.streaming.run_streaming_consensus`,
the fifth harness entry point:

* ``load-sweep`` -- throughput-vs-offered-load curves for the three protocol
  families on the paper profile (LoRa + STM32) and the gateway-class scale
  profile, with a saturation-point classifier (a cell is *saturated* when
  its backlog outgrows three epoch batches or the bounded mempool starts
  dropping arrivals) and claim checks that at least two protocols expose a
  saturation point inside the swept range;
* ``streaming-pipeline`` -- the pipelining contract: at the ``locked`` gate
  the 50-epoch stream is bit-identical between pipeline depth 0 and 1
  (equal ledger digests *and* equal durations), while the ``eager`` gate
  trades that identity for measurable overlap (depth 1 finishes faster).

Like every other spec, cells are pure functions of their params: metrics are
virtual-time only, so RESULTS.json stays byte-reproducible across reruns and
worker counts.
"""

from __future__ import annotations

from repro.expts.judged import judged_stream
from repro.expts.registry import register
from repro.expts.specs import ExperimentSpec
from repro.protocols.base import ConsensusConfig
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec
from repro.testbed.workload import ArrivalSpec

LOAD_PROTOCOLS = ("honeybadger-sc", "beat", "dumbo-sc")
LOAD_SEED = 777
LOAD_EPOCHS = 8
LOAD_BATCH = 4
#: offered loads (tx/s of virtual time, whole network) straddling saturation
PAPER_LOADS = (0.25, 0.5, 1.0, 2.0)
SCALE_LOADS = (10.0, 30.0, 60.0, 120.0)
#: a cell is saturated when its deepest backlog exceeds this many epoch
#: batches (the queue outgrows what consensus drains) or arrivals get dropped
SATURATION_BACKLOG_BATCHES = 3


def _profile_scenario(profile: str) -> Scenario:
    if profile == "paper":
        return Scenario.single_hop(4)
    return Scenario.scale_single_hop(4)


def load_sweep_cell(params: dict) -> list:
    """One streaming run at a fixed offered load; classifies saturation."""
    scenario = _profile_scenario(params["profile"])
    spec = StreamingSpec(
        epochs=LOAD_EPOCHS, batch_size=LOAD_BATCH,
        arrival=ArrivalSpec(rate_tps=params["offered_tps"],
                            transaction_bytes=32, max_mempool=256))
    result = judged_stream(
        f"{params['protocol']} @ {params['offered_tps']} tx/s on "
        f"{params['profile']}", params["protocol"], scenario, spec, LOAD_SEED)
    saturated = int(
        result.max_backlog > SATURATION_BACKLOG_BATCHES * LOAD_BATCH
        or result.arrivals_dropped_capacity > 0)
    return [[params["protocol"], params["profile"], params["offered_tps"],
             round(result.throughput_tps, 2), round(result.p50_latency_s, 2),
             round(result.p90_latency_s, 2), result.max_backlog,
             result.arrivals_dropped_capacity, saturated]]


def _saturation_points(rows: list) -> dict:
    """Per (protocol, profile): (smallest saturated load, any unsaturated)."""
    curves: dict = {}
    for row in rows:
        protocol, profile, offered, saturated = row[0], row[1], row[2], row[8]
        curve = curves.setdefault((protocol, profile),
                                  {"saturated": [], "unsaturated": []})
        curve["saturated" if saturated else "unsaturated"].append(offered)
    return curves


def check_load_sweep_saturation_detected(rows: list) -> None:
    """>= 2 protocols expose a saturation point inside the swept range."""
    curves = _saturation_points(rows)
    with_point = {protocol for (protocol, _profile), curve in curves.items()
                  if curve["saturated"]}
    assert len(with_point) >= 2, (
        f"saturation detected only for {sorted(with_point)}")


def check_load_sweep_has_unsaturated_region(rows: list) -> None:
    """>= 2 protocols also have an unsaturated operating point (the curves
    actually straddle the knee rather than starting beyond it)."""
    curves = _saturation_points(rows)
    with_headroom = {protocol
                     for (protocol, _profile), curve in curves.items()
                     if curve["unsaturated"]}
    assert len(with_headroom) >= 2, (
        f"unsaturated points only for {sorted(with_headroom)}")


def check_load_sweep_achieved_never_exceeds_offered(rows: list) -> None:
    """Sanity: committed throughput cannot beat the offered load (open loop,
    unique arrivals; small tolerance for ramp rounding)."""
    for row in rows:
        assert row[3] <= row[2] * 1.05 + 0.01, (
            f"{row[0]}@{row[1]}: achieved {row[3]} > offered {row[2]}")


LOAD_SWEEP = register(ExperimentSpec(
    spec_id="load-sweep",
    paper_anchor="Section VI-C (sustained load)",
    title="Throughput vs. offered load under open-loop streaming",
    description=(
        "Multi-epoch streaming runs (8 epochs, batch<=4 tx/node/epoch) "
        "against an open-loop Poisson-like arrival process, swept across "
        "offered loads on the paper profile (LoRa + STM32, services well "
        "under 1 tx/s) and the gateway-class scale profile (~45 tx/s).  "
        "Achieved throughput tracks the offered load until the saturation "
        "point, beyond which the backlog grows without bound and the "
        "bounded mempool starts shedding arrivals."),
    headers=("protocol", "profile", "offered tx/s", "achieved tx/s",
             "p50 epoch s", "p90 epoch s", "max backlog", "dropped",
             "saturated"),
    schema=("str", "str", "float", "float", "float", "float", "int", "int",
            "int"),
    cell_fn=load_sweep_cell,
    grid=tuple({"protocol": protocol, "profile": profile,
                "offered_tps": offered}
               for protocol in LOAD_PROTOCOLS
               for profile, loads in (("paper", PAPER_LOADS),
                                      ("scale", SCALE_LOADS))
               for offered in loads),
    quick_grid=tuple({"protocol": protocol, "profile": profile,
                      "offered_tps": offered}
                     for protocol in LOAD_PROTOCOLS
                     for profile, loads in (("paper", (0.5, 2.0)),
                                            ("scale", (30.0, 120.0)))
                     for offered in loads),
    checks=(check_load_sweep_saturation_detected,
            check_load_sweep_has_unsaturated_region,
            check_load_sweep_achieved_never_exceeds_offered),
    bindings={"protocols": ", ".join(LOAD_PROTOCOLS),
              "topology": "single-hop N=4 (paper + scale profiles)",
              "workload": "open-loop arrivals, 32 B tx, mempool cap 256",
              "seed": str(LOAD_SEED)},
    cell_budget_s=120.0,
))


# ---------------------------------------------------------------------------
# streaming-pipeline -- the pipelining contract (identity + overlap)
# ---------------------------------------------------------------------------

PIPELINE_SEED = 42
#: the acceptance-pinned stream length of the locked-gate identity rows
PIPELINE_LOCKED_EPOCHS = 50
PIPELINE_EAGER_EPOCHS = 30


def streaming_pipeline_cell(params: dict) -> list:
    """One streaming run at the given gate/depth; rows carry the ledger
    digest so the cross-cell identity check is byte-level."""
    mode, depth = params["mode"], params["depth"]
    if mode == "locked":
        # lock-equals-decide configuration: HoneyBadger without threshold
        # encryption on the paper profile; pipelining must be a no-op here
        scenario = _profile_scenario("paper")
        spec = StreamingSpec(
            epochs=PIPELINE_LOCKED_EPOCHS, batch_size=4, warmup=250,
            pipeline_depth=depth, pipeline_gate="locked",
            arrival=ArrivalSpec(rate_tps=1.0, transaction_bytes=32,
                                max_mempool=8192))
        config = ConsensusConfig(use_threshold_encryption=False)
    else:
        # eager overlap on the scale profile: the next epoch's RBC claims
        # the channel-idle gaps of the current epoch's ABA rounds
        scenario = _profile_scenario("scale")
        spec = StreamingSpec(
            epochs=PIPELINE_EAGER_EPOCHS, batch_size=4, warmup=200,
            pipeline_depth=depth, pipeline_gate="eager",
            arrival=ArrivalSpec(rate_tps=20.0, transaction_bytes=32,
                                max_mempool=8192))
        config = None
    result = judged_stream(f"{mode} gate, depth {depth}", "honeybadger-sc",
                           scenario, spec, PIPELINE_SEED, config=config)
    return [[mode, depth, result.epochs_completed,
             round(result.duration_s, 3), round(result.throughput_tps, 2),
             round(result.p50_latency_s, 3), result.ledger_digest[:16]]]


def check_locked_depths_bit_identical(rows: list) -> None:
    """The acceptance contract: locked-gate 50-epoch streams are
    bit-identical between pipeline depth 0 and 1 (same ledger digest over
    every per-epoch block digest, same virtual duration)."""
    locked = {row[1]: row for row in rows if row[0] == "locked"}
    if 0 not in locked or 1 not in locked:
        return
    assert locked[0][6] == locked[1][6], (
        f"ledger digests diverged: {locked[0][6]} != {locked[1][6]}")
    assert locked[0][3] == locked[1][3], (
        f"durations diverged: {locked[0][3]} != {locked[1][3]}")


def check_eager_depth1_overlaps(rows: list) -> None:
    """Eager pipelining actually overlaps: depth 1 finishes the same stream
    in less virtual time (and so at higher sustained throughput)."""
    eager = {row[1]: row for row in rows if row[0] == "eager"}
    if 0 not in eager or 1 not in eager:
        return
    assert eager[1][3] < eager[0][3], (
        f"eager depth 1 not faster: {eager[1][3]} >= {eager[0][3]}")
    assert eager[1][4] > eager[0][4]


STREAMING_PIPELINE = register(ExperimentSpec(
    spec_id="streaming-pipeline",
    paper_anchor="Section V-A (extended)",
    title="Epoch pipelining: locked-gate determinism vs. eager overlap",
    description=(
        "The streaming runner's pipelining contract, measured: with the "
        "locked gate (next epoch starts only once every honest node's "
        "content is frozen) a 50-epoch stream is bit-identical between "
        "pipeline depth 0 and 1 -- same per-epoch digests, same duration -- "
        "while the eager gate lets epoch e+1's RBC dissemination overlap "
        "epoch e's ABA rounds, finishing the same 30-epoch stream markedly "
        "faster at depth 1 at the cost of depth-dependent epoch "
        "composition."),
    headers=("gate", "depth", "epochs", "duration s", "throughput tx/s",
             "p50 epoch s", "ledger digest"),
    schema=("str", "int", "int", "float", "float", "float", "str"),
    cell_fn=streaming_pipeline_cell,
    grid=tuple({"mode": mode, "depth": depth}
               for mode in ("locked", "eager") for depth in (0, 1)),
    checks=(check_locked_depths_bit_identical, check_eager_depth1_overlaps),
    bindings={"protocol": "honeybadger-sc",
              "topology": "single-hop N=4 (paper profile locked, scale "
                          "profile eager)",
              "workload": "open-loop arrivals, warmup-saturated",
              "seed": str(PIPELINE_SEED)},
    cell_budget_s=120.0,
))
