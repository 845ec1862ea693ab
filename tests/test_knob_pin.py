"""The settable surface, pinned: every field of the run-shaping dataclasses
and every parameter of the main entry points, by name.

A value that every run sets the same way is a constant, not an option.  A
change that adds a field or a parameter here updates this pin and names, in
its change description, the second caller that needs the new value.
"""

import dataclasses
import inspect

import pytest

from repro.components.erasure import ErasureBlock, encode_blocks
from repro.core.batcher import TransportConfig
from repro.net.adversary import LinkFaultSpec
from repro.protocols.base import ConsensusConfig
from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.campaign import CampaignCell, FaultModel, TopologySpec
from repro.testbed.dealer_cache import DealerCache, deal_crypto_domain
from repro.testbed.harness import (
    Deployment,
    build_deployment,
    run_aba_experiment,
    run_consensus,
    run_multihop_consensus,
)
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ChurnSpec

FIELDS = {
    TransportConfig: ("resend_interval_s", "stall_threshold_s", "interface"),
    ConsensusConfig: ("epoch", "use_threshold_encryption"),
    ChurnSpec: ("initial_size", "join_rate", "leave_rate", "crash_times",
                "horizon_s"),
    ErasureBlock: ("index", "point", "values", "payload_length",
                   "num_data_blocks"),
    Deployment: ("scenario", "sim", "trace", "adversary", "channels", "nodes",
                 "runtimes", "global_runtimes", "epoch_leaders", "batched"),
    # late_crash_at_s: the campaign sets 15.0 and an example 10.0
    ByzantineSpec: ("assignments", "late_crash_at_s"),
    Scenario: ("topology", "radio", "csma", "transport", "dma", "cpu",
               "crypto_cost_scale", "ec_curve", "threshold_curve",
               "byzantine", "link_faults", "partitions", "per_hop_forward_s",
               "rotate_crashed_leaders", "membership", "timeout_s"),
    LinkFaultSpec: ("drop_rate", "duplicate_rate", "reorder_jitter_s",
                    "senders", "start_s", "end_s"),
    # the run document: a campaign cell and what it is made of
    CampaignCell: ("protocol", "topology", "fault", "flavor", "seed",
                   "stream_epochs", "scenario", "ingress"),
    TopologySpec: ("kind", "num_nodes", "num_clusters", "cluster_size",
                   "profile", "shards"),
    FaultModel: ("name", "description", "apply", "expect_decision",
                 "affected_domains_multihop", "timeout_scale",
                 "streaming_only"),
    StreamingSpec: ("epochs", "batch_size", "pipeline_depth", "arrival",
                    "warmup", "pipeline_gate"),
}

PARAMETERS = {
    # batch_size / transaction_bytes stay only for the positional call in
    # benchmarks/ledger/test_ledger.py; every other caller passes
    # workload_spec
    run_consensus: ("protocol", "scenario", "batch_size", "transaction_bytes",
                    "batched", "seed", "config", "workload_spec", "observer"),
    run_multihop_consensus: ("protocol", "scenario", "batched", "seed",
                             "config", "workload_spec", "observer", "shards",
                             "shard_workers"),
    run_streaming_consensus: ("protocol", "scenario", "spec", "seed",
                              "config", "observer", "pack", "membership",
                              "ingress"),
    run_aba_experiment: ("kind", "parallel_instances", "serial_instances",
                         "num_nodes", "batched", "seed", "scenario"),
    encode_blocks: ("data", "num_data_blocks", "num_blocks"),
    build_deployment: ("scenario", "batched", "seed", "crypto_schemes",
                       "global_crypto_schemes"),
    deal_crypto_domain: ("num_nodes", "domain_seed", "schemes", "domain"),
    # one process tier, nothing to point at or switch off
    DealerCache: (),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_dataclass_fields_are_pinned(cls):
    assert tuple(field.name for field in dataclasses.fields(cls)) == \
        FIELDS[cls]


@pytest.mark.parametrize("function", list(PARAMETERS),
                         ids=lambda function: function.__name__)
def test_entry_point_parameters_are_pinned(function):
    assert tuple(inspect.signature(function).parameters) == \
        PARAMETERS[function]
