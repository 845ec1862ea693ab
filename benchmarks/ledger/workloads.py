"""The six workloads of the performance ledger.

A workload is a fixed tuple of *cells*; one cell is one call of a public
harness entry point with every argument pinned except the seed.  A pass runs
every cell once per seed.  Why each workload exists, which layer it stresses
and which it bypasses is in README.md; the one-line reasons are the ``why``
strings of BENCHMARK.json.

Cell sizes are chosen so that one pass over a workload's cells takes at most
~2.5 s of host time on the 2-core reference box: the benchmark contract gives
a run ten measured seconds and every workload must see at least four distinct
seeds in them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: offered rates of ``ingress-n4`` (tx per virtual second): below, at and past
#: the ~45-50 tx/s saturation point of the n=4 scale deployment
INGRESS_RATES_TPS = (40, 80, 160)
#: the client-latency limit ``virt.slo_max_rate_tps`` is judged against
SLO_LIMIT_VIRT_S = 1.0
SLO_CLASS = "high"
INGRESS_MAX_MEMPOOL = 256

#: the workloads, in the order BENCHMARK.json lists them (it also holds the
#: one-line reason for each; README.md has the long form)
NAMES = ("fig13a-n4", "stream-n4", "ingress-n4", "components-n32",
         "multihop-8x8", "multihop-8x8-sharded")


@dataclass(frozen=True)
class Cell:
    """One pinned entry-point call; ``run(seed)`` returns its result dataclass.

    ``pair`` names the batched/unbatched twin group a cell belongs to (the
    reduction metrics divide unbatched by batched inside a pair);
    ``rate_tps`` is set on ingress cells only.
    """

    name: str
    run: Callable[[int], Any]
    batched: bool = True
    pair: Optional[str] = None
    rate_tps: Optional[int] = None


def build(name: str, traced: bool = False) -> tuple:
    """The cells of workload ``name`` (imports ``repro`` on first use).

    ``traced`` only matters to ``multihop-8x8-sharded``: the traced pass runs
    ``shard_workers=1`` so every span stays in the tracing process
    (``shard_workers`` never changes a result, see ``run_multihop_consensus``).
    """
    from repro.testbed.harness import (
        run_aba_experiment,
        run_broadcast_experiment,
        run_consensus,
        run_multihop_consensus,
    )
    from repro.testbed.ingress import ingress_profile
    from repro.testbed.scenarios import Scenario
    from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
    from repro.testbed.workload import ArrivalSpec

    if name == "fig13a-n4":
        scenario = Scenario.single_hop(4)
        return tuple(
            Cell(f"{protocol}/{'batched' if batched else 'unbatched'}",
                 lambda seed, p=protocol, b=batched:
                     run_consensus(p, scenario, batched=b, seed=seed),
                 batched=batched, pair=protocol)
            for protocol in ("honeybadger-sc", "honeybadger-lc", "beat",
                             "dumbo-sc", "dumbo-lc")
            for batched in (True, False))
    if name == "stream-n4":
        scenario = Scenario.single_hop(4)
        spec = StreamingSpec(
            epochs=40, batch_size=4, warmup=64,
            arrival=ArrivalSpec(rate_tps=2.0, transaction_bytes=32,
                                max_mempool=1024))
        return (Cell("honeybadger-sc/40-epochs",
                     lambda seed: run_streaming_consensus(
                         "honeybadger-sc", scenario, spec, seed=seed)),)
    if name == "ingress-n4":
        scenario = Scenario.scale_single_hop(4)
        ingress = ingress_profile("three-class-shed")
        return tuple(
            Cell(f"offered-{rate}-tps",
                 lambda seed, r=rate: run_streaming_consensus(
                     "honeybadger-sc", scenario,
                     StreamingSpec(epochs=12, arrival=ArrivalSpec(
                         rate_tps=float(r), transaction_bytes=48,
                         max_mempool=INGRESS_MAX_MEMPOOL)),
                     seed=seed, ingress=ingress),
                 rate_tps=rate)
            for rate in INGRESS_RATES_TPS)
    if name == "components-n32":
        scenario = Scenario.scale_single_hop(32)
        return (
            Cell("rbc/batched", lambda seed: run_broadcast_experiment(
                "rbc", parallelism=12, proposal_packets=4, num_nodes=32,
                batched=True, seed=seed, scenario=scenario),
                 batched=True, pair="rbc"),
            Cell("rbc/unbatched", lambda seed: run_broadcast_experiment(
                "rbc", parallelism=12, proposal_packets=4, num_nodes=32,
                batched=False, seed=seed, scenario=scenario),
                 batched=False, pair="rbc"),
            # shared-coin ABA only: the coin-flip ("cp") and local-coin ("lc")
            # variants are lotteries at this size -- host time varies 38% and
            # more between seeds from coin luck alone -- and both still run
            # in fig13a-n4 (beat, *-lc)
            Cell("aba-sc", lambda seed: run_aba_experiment(
                "sc", parallel_instances=12, num_nodes=32, seed=seed,
                scenario=scenario)),
        )
    if name in ("multihop-8x8", "multihop-8x8-sharded"):
        scenario = Scenario.scale_multi_hop(8, 8)
        sharding = {} if name == "multihop-8x8" else \
            {"shards": 8, "shard_workers": 1 if traced else 2}
        return (Cell("honeybadger-sc/8x8",
                     lambda seed: run_multihop_consensus(
                         "honeybadger-sc", scenario, seed=seed, **sharding)),)
    raise KeyError(f"unknown workload {name!r}; known: {NAMES}")


# ---------------------------------------------------------------------------
# what a result says: failure, virtual-time samples, counts
# ---------------------------------------------------------------------------

def failure(result: Any) -> Optional[str]:
    """Why ``result`` counts as a failed operation (None = it succeeded).

    A call fails if it is not decided/completed, honest nodes' (or leaders')
    digests disagree, a stream finishes fewer than its target epochs, or the
    ingress dispositions do not conserve the offered transactions.
    """
    finished = getattr(result, "decided", None)
    if finished is None:
        finished = result.completed
    if not finished:
        return "not decided within the scenario timeout"
    for field in ("per_node_digest", "per_leader_digest"):
        digests = getattr(result, field, None)
        if digests is not None and len(set(digests.values())) != 1:
            return f"{field} disagrees: {sorted(set(digests.values()))}"
    if hasattr(result, "epochs_target"):
        if result.epochs_completed < result.epochs_target:
            return (f"stream completed {result.epochs_completed} of "
                    f"{result.epochs_target} epochs")
        if result.classes:
            from repro.testbed.invariants import check_ingress_conservation
            verdict = check_ingress_conservation(result.classes)
            if not verdict.ok:
                return verdict.detail
    return None


def facts(result: Any) -> dict:
    """The numbers the ledger reads off one result (virtual time and counts).

    ``latencies`` is the virtual-time latency sample the result contributes:
    per-epoch ``latency_s`` for streams, the run's ``latency_s`` otherwise.
    ``duration_s`` is the virtual time the run took to commit ``committed``
    transactions; ``epochs`` counts decided consensus epochs (component
    experiments decide none).
    """
    streaming = hasattr(result, "per_epoch")
    high = next((record for record in getattr(result, "classes", ())
                 if record.name == SLO_CLASS), None)
    return {
        "latencies": [record.latency_s for record in result.per_epoch]
        if streaming else [result.latency_s],
        "committed": getattr(result, "committed_transactions", 0),
        "duration_s": result.duration_s if streaming else result.latency_s,
        "epochs": result.epochs_completed if streaming
        else int(hasattr(result, "decided")),
        "modelled_crypto_s": getattr(result, "crypto_seconds", 0.0),
        "aba_rounds": getattr(result, "rounds_executed", 0),
        "channel_accesses": result.channel_accesses,
        "bytes_sent": result.bytes_sent,
        "mempool_drops": getattr(result, "arrivals_dropped_capacity", 0),
        "offered": sum(record.offered
                       for record in getattr(result, "classes", ())),
        "shed": getattr(result, "shed_total", 0),
        "backlog_max": getattr(result, "max_backlog", 0),
        "slo_p90_s": high.p90_latency_s if high else None,
        "slo_shed": high.shed if high else None,
    }


def canonical(result: Any) -> str:
    """Canonical repr of a result dataclass (dict fields in key order)."""
    def walk(value: Any) -> Any:
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return (type(value).__name__,
                    [(f.name, walk(getattr(value, f.name)))
                     for f in dataclasses.fields(value)])
        if isinstance(value, dict):
            return sorted((repr(key), walk(item)) for key, item in value.items())
        if isinstance(value, (list, tuple)):
            return [walk(item) for item in value]
        return repr(value)
    return repr(walk(result))
