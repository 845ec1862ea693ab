"""The asynchronous wireless BFT consensus testbed (Section V-C).

The testbed glues the network substrate, the cryptographic module, the
consensus components and the consensus protocols into runnable experiments:

* :mod:`~repro.testbed.scenarios` -- deployment descriptions (single-hop four
  nodes, multi-hop sixteen nodes in four clusters, radio/MAC/crypto knobs);
* :mod:`~repro.testbed.workload`  -- transaction workload generators;
* :mod:`~repro.testbed.byzantine` -- fault/attack strategies for up to ``f``
  nodes per cluster;
* :mod:`~repro.testbed.harness`   -- builds deployments and runs consensus,
  broadcast-component and ABA experiments, batched or baseline;
* :mod:`~repro.testbed.streaming` -- the sustained-load subsystem: E
  back-to-back epochs, open-loop arrivals through the ingress layer
  (:mod:`~repro.testbed.ingress`), epoch pipelining and checkpoint/GC;
* :mod:`~repro.testbed.metrics`   -- latency / throughput (TPM) / overhead
  metrics extracted from runs;
* :mod:`~repro.testbed.invariants` -- safety/liveness conformance checking
  (agreement, total order, validity, liveness expectations);
* :mod:`~repro.testbed.campaign`  -- the deterministic fault-injection
  scenario-sweep engine (see TESTING.md and ``scripts/run_campaign.py``);
* :mod:`~repro.testbed.reporting` -- table/figure formatting used by the
  benchmark harness under ``benchmarks/``.
"""

from repro.testbed.scenarios import Scenario
from repro.testbed.workload import TransactionWorkload, WorkloadSpec
from repro.testbed.byzantine import ByzantineSpec, BYZANTINE_STRATEGIES
from repro.testbed.metrics import ConsensusRunResult, ComponentRunResult
from repro.testbed.harness import (
    Deployment,
    run_consensus,
    run_multihop_consensus,
    run_broadcast_experiment,
    run_aba_experiment,
)
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ArrivalSpec
from repro.testbed.metrics import StreamingRunResult
from repro.testbed.invariants import InvariantVerdict, RunObserver, check_all
from repro.testbed.campaign import (
    FAULT_MODELS,
    CampaignCell,
    CampaignSpec,
    TopologySpec,
    default_cells,
    run_cell,
)
from repro.testbed.reporting import format_table, improvement_percent

__all__ = [
    "Scenario",
    "TransactionWorkload",
    "WorkloadSpec",
    "ByzantineSpec",
    "BYZANTINE_STRATEGIES",
    "ConsensusRunResult",
    "ComponentRunResult",
    "Deployment",
    "run_consensus",
    "run_multihop_consensus",
    "run_broadcast_experiment",
    "run_aba_experiment",
    "run_streaming_consensus",
    "StreamingSpec",
    "StreamingRunResult",
    "ArrivalSpec",
    "InvariantVerdict",
    "RunObserver",
    "check_all",
    "FAULT_MODELS",
    "CampaignCell",
    "CampaignSpec",
    "TopologySpec",
    "default_cells",
    "run_cell",
    "format_table",
    "improvement_percent",
]
