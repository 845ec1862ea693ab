"""One assembler, one stack recipe, one epoch driver.

``build_deployment``, ``build_shard_deployment`` and
``MembershipController.reconfigure`` all go through the harness's
``_assemble`` / ``_build_stack``; the sharded determinism contract is that a
node gets the same identity -- keys, domain-local ids, transport config and
RNG streams -- whichever layout hosts it.  The end-to-end digests only imply
that; these tests pin it per node, plus the construction-order invariant and
the ``Epoch.feed`` idempotence the run loops rely on.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro.core.batcher import TransportConfig
from repro.crypto.timing import CryptoSuite
from repro.protocols.multihop import decode_cluster_contribution
from repro.testbed import harness
from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.dealer_cache import deal_crypto_domain, stable_seed
from repro.testbed.harness import (
    Epoch,
    build_deployment,
    run_aba_experiment,
    run_broadcast_experiment,
    run_consensus,
    run_multihop_consensus,
)
from repro.testbed.invariants import RunObserver
from repro.testbed.membership import MembershipController, MembershipSchedule
from repro.testbed.scenarios import Scenario
from repro.testbed.sharding import build_shard_deployment, partition_clusters
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ArrivalSpec, TransactionWorkload, WorkloadSpec
from tests.helpers import observer_digest

SEED = 11
SCHEME_ATTRIBUTES = ("threshold_sig", "threshold_coin", "coin_flip",
                     "threshold_enc")


def _key_handles(suite):
    """The dealt key material a suite holds, as comparable values."""
    handles = {"signing_key": suite.signing_key,
               "verify_keys": tuple(suite.verify_keys)}
    for name in SCHEME_ATTRIBUTES:
        scheme = getattr(suite, name)
        handles[name] = (scheme.public_key, scheme.private_share)
    return handles


def _stack_identity(node, runtime, interface):
    """Everything about one node's stack that must not depend on the layout.

    RNG streams are compared by state (equal state = equal draws), which
    leaves the streams untouched.
    """
    ctx = runtime.ctx
    return {
        **_key_handles(ctx.suite),
        "local_id": (runtime.local_id, ctx.node_id, runtime.transport.local_id),
        "num_nodes": (ctx.num_nodes, runtime.transport.num_nodes),
        "faults": ctx.faults,
        "transport_class": type(runtime.transport),
        "transport_config": runtime.transport.config,
        "mac_rng": node.interfaces[interface].rng.getstate(),
        "suite_rng": ctx.suite.rng.getstate(),
        "component_rng": ctx.rng.getstate(),
    }


def _identities(deployment):
    local = {node_id: _stack_identity(deployment.nodes[node_id], runtime,
                                      "radio0")
             for node_id, runtime in deployment.runtimes.items()}
    leaders = {leader: _stack_identity(deployment.nodes[leader], runtime,
                                       "backbone")
               for leader, runtime in deployment.global_runtimes.items()}
    return local, leaders


@pytest.mark.parametrize("clusters", [2, 4])
@pytest.mark.parametrize("batched", [True, False])
def test_every_shard_layout_builds_the_classic_stacks(clusters, batched):
    scenario = Scenario.scale_multi_hop(clusters, 4)
    classic = build_deployment(scenario, batched=batched, seed=SEED)
    classic_local, classic_leaders = _identities(classic)
    assert set(classic_local) == set(scenario.topology.all_node_ids())
    assert len(classic_leaders) == clusters

    for shards in (1, 2, 4):
        if shards > clusters:
            continue
        seen_local, seen_leaders = {}, {}
        for shard_index, block in enumerate(
                partition_clusters(clusters, shards)):
            deployment, backbone, macs = build_shard_deployment(
                scenario, shard_index, block, batched, SEED)
            local, leaders = _identities(deployment)
            hosted = {node_id for index in block
                      for node_id in scenario.topology.clusters[index].node_ids}
            assert set(local) == hosted
            # every shard resolves all leaders, hosts only its own
            assert deployment.epoch_leaders == classic.epoch_leaders
            assert set(leaders) == {classic.epoch_leaders[index]
                                    for index in block}
            assert backbone is deployment.channels[
                scenario.topology.global_channel_name]
            assert [mac.node_id for mac in macs] == list(leaders)
            seen_local.update(local)
            seen_leaders.update(leaders)
        assert seen_local == classic_local, f"{shards} shards"
        assert seen_leaders == classic_leaders, f"{shards} shards"


_STREAM = StreamingSpec(epochs=2, batch_size=2, warmup=8,
                        arrival=ArrivalSpec(rate_tps=4.0, transaction_bytes=32,
                                            max_mempool=512))

#: every entry point, on the smallest run that builds its stacks (the
#: membership stream rebuilds its committee once before it starts)
ENTRY_POINTS = {
    "consensus-hb": lambda: run_consensus("honeybadger-sc",
                                          Scenario.single_hop(4), seed=SEED),
    "consensus-beat": lambda: run_consensus("beat", Scenario.single_hop(4),
                                            seed=SEED),
    "consensus-dumbo": lambda: run_consensus("dumbo-lc",
                                             Scenario.single_hop(4), seed=SEED),
    "multihop": lambda: run_multihop_consensus(
        "beat", Scenario.scale_multi_hop(2, 4), seed=SEED),
    "multihop-sharded": lambda: run_multihop_consensus(
        "dumbo-sc", Scenario.scale_multi_hop(2, 4), seed=SEED, shards=2),
    "broadcast": lambda: run_broadcast_experiment("rbc", seed=SEED),
    "aba": lambda: run_aba_experiment("lc", seed=SEED),
    "stream": lambda: run_streaming_consensus(
        "honeybadger-lc", Scenario.single_hop(4), _STREAM, seed=SEED),
    "stream-membership": lambda: run_streaming_consensus(
        "dumbo-lc", Scenario.single_hop(5), _STREAM, seed=SEED,
        membership=MembershipSchedule(range(5), range(4))),
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_every_suite_holds_every_threshold_scheme(entry_point, monkeypatch):
    """One crypto domain shape: whatever the protocol or component, every
    node's suite gets a handle of all four threshold schemes."""
    held = []
    init = CryptoSuite.__init__

    def recording(suite, *args, **kwargs):
        init(suite, *args, **kwargs)
        held.append(tuple(getattr(suite, name) is not None
                          for name in SCHEME_ATTRIBUTES))

    monkeypatch.setattr(CryptoSuite, "__init__", recording)
    ENTRY_POINTS[entry_point]()
    assert held and set(held) == {(True,) * len(SCHEME_ATTRIBUTES)}


def test_global_stacks_are_built_after_every_local_stack(monkeypatch):
    """Transports draw their resend jitter from the simulator RNG when
    built, so the construction order is part of every pinned digest: each
    hosted cluster's local stacks in node order first, then the hosted
    leaders' global stacks in cluster order."""
    built = []
    build_stack = harness._build_stack

    def recording(deployment, node, local_id, num_nodes, domain, config,
                  channel_names, *rngs):
        built.append((node.node_id, tuple(channel_names)))
        return build_stack(deployment, node, local_id, num_nodes, domain,
                           config, channel_names, *rngs)

    monkeypatch.setattr(harness, "_build_stack", recording)
    scenario = Scenario.scale_multi_hop(4, 4)
    topology = scenario.topology

    def expected(cluster_indices, leaders):
        clusters = [topology.clusters[index] for index in cluster_indices]
        return [(node_id, (cluster.channel_name, None))
                for cluster in clusters for node_id in cluster.node_ids] + \
               [(leaders[cluster.index], (topology.global_channel_name,))
                for cluster in clusters]

    classic = build_deployment(scenario, seed=SEED)
    assert built == expected(range(4), classic.epoch_leaders)
    for shard_index, block in enumerate(partition_clusters(4, 2)):
        built.clear()
        build_shard_deployment(scenario, shard_index, block, True, SEED)
        assert built == expected(block, classic.epoch_leaders)


def test_backbone_transport_config_copies_every_field():
    """The leaders' backbone transport is the scenario's transport config
    with only the interface overridden -- field by field, so a new
    ``TransportConfig`` field cannot be dropped on the backbone alone."""
    custom = TransportConfig(
        resend_interval_s=7.5, stall_threshold_s=5.5)
    defaults = TransportConfig()
    overridden = {"interface"}
    for config_field in dataclasses.fields(TransportConfig):
        if config_field.name not in overridden:
            assert getattr(custom, config_field.name) != \
                getattr(defaults, config_field.name), \
                f"give {config_field.name} a non-default value in this test"
    scenario = dataclasses.replace(Scenario.scale_multi_hop(2, 4),
                                   transport=custom)
    deployment = build_deployment(scenario, seed=SEED)
    assert deployment.global_runtimes
    for runtime in deployment.global_runtimes.values():
        backbone_config = runtime.transport.config
        assert backbone_config.interface == "backbone"
        for config_field in dataclasses.fields(TransportConfig):
            if config_field.name not in overridden:
                assert getattr(backbone_config, config_field.name) == \
                    getattr(custom, config_field.name), config_field.name
    for runtime in deployment.runtimes.values():
        assert runtime.transport.config == custom


@pytest.mark.parametrize("knob", ["reliability", "aggregation_window_s"])
def test_transport_config_refuses_the_knobs_the_transport_never_read(knob):
    """Setting either used to be accepted and change nothing (``ACK`` ran
    NACK; the batcher has no window: content binds at channel access)."""
    with pytest.raises(TypeError):
        TransportConfig(**{knob: 0.1})


def test_reconfigure_with_unchanged_committee_rebuilds_the_same_stacks():
    """``MembershipController.reconfigure`` is the same stack recipe as the
    first build, modulo its committee-domain dealing and ``membership-*``
    RNG labels."""
    scenario = Scenario.single_hop(4)
    built = build_deployment(scenario, seed=SEED)
    before, _ = _identities(built)
    nodes = dict(built.nodes)

    members = tuple(range(4))
    controller = MembershipController(
        MembershipSchedule(members, members), built, seed=SEED)
    controller.reconfigure()
    after, _ = _identities(built)
    assert built.nodes == nodes and set(after) == set(before)

    domain = deal_crypto_domain(
        4, stable_seed(SEED, "cluster", 0), domain=("committee",) + members)
    channel_name = scenario.topology.clusters[0].channel_name
    for node_id, identity in after.items():
        expected = dict(before[node_id])
        # re-dealt under the committee domain ...
        expected["signing_key"] = domain.signing_keys[node_id]
        expected["verify_keys"] = tuple(domain.verify_keys)
        for name in SCHEME_ATTRIBUTES:
            dealt = getattr(domain, name)[node_id]
            expected[name] = (dealt.public_key, dealt.private_share)
        # ... on the membership RNG labels; the MAC is not rebuilt
        expected["suite_rng"] = random.Random(stable_seed(
            SEED, "membership-crypto", 1, node_id)).getstate()
        expected["component_rng"] = random.Random(stable_seed(
            SEED, "membership-component", 1, node_id)).getstate()
        assert identity == expected
        transport = built.runtimes[node_id].transport
        node = built.nodes[node_id]
        assert node.stack is transport
        assert node._channel_stacks.get(channel_name, node.stack) is transport


def test_feed_proposes_each_cluster_contribution_once():
    scenario = Scenario.scale_multi_hop(2, 4)
    protocol = "honeybadger-sc"
    deployment = build_deployment(scenario, seed=SEED)
    epoch = Epoch(deployment, protocol)
    epoch.propose(TransactionWorkload(WorkloadSpec(batch_size=2), seed=SEED))

    proposed = []
    for leader, instance in epoch.global_protocols.items():
        def counting(batch, leader=leader, propose=instance.propose):
            proposed.append((leader, batch))
            return propose(batch)
        instance.propose = counting

    leaders = list(deployment.epoch_leaders.values())
    assert deployment.sim.run_until(
        lambda: all(epoch.local_protocols[leader].decided
                    for leader in leaders),
        timeout=scenario.timeout_s)
    assert not proposed and not epoch.local_latencies
    epoch.feed()
    epoch.feed()

    def poll():
        epoch.feed()
        return epoch.done()

    assert deployment.sim.run_until(poll, timeout=scenario.timeout_s)
    deployment.close()
    epoch.feed()
    assert Counter(leader for leader, _batch in proposed) == \
        Counter(leaders)
    contributed = sorted(decode_cluster_contribution(batch[0])[0]
                         for _leader, batch in proposed)
    assert contributed == sorted(deployment.epoch_leaders)
    assert sorted(epoch.local_latencies) == contributed
    report = epoch.report()
    assert report["local_latencies"] == epoch.local_latencies
    assert [leader for leader, *_ in report["decisions"]] == leaders


def test_feed_when_two_leaders_decide_in_one_event():
    """``feed`` is driven by the local instances' ``on_decide`` hook: one
    event deciding two leaders must feed both clusters, once, in cluster
    order -- and later calls with no new decision must do nothing."""
    scenario = Scenario.scale_multi_hop(2, 4)
    protocol = "honeybadger-sc"
    deployment = build_deployment(scenario, seed=SEED)
    epoch = Epoch(deployment, protocol)
    leaders = list(deployment.epoch_leaders.values())

    proposed = []
    for leader, instance in epoch.global_protocols.items():
        def counting(batch, leader=leader, propose=instance.propose):
            proposed.append(leader)
            return propose(batch)
        instance.propose = counting

    def decide_both():
        for leader in leaders:
            epoch.local_protocols[leader]._finish([b"block-%d" % leader])

    deployment.sim.schedule(1.0, decide_both)
    polls_without_news = []

    def poll():
        before = len(epoch.local_latencies)
        epoch.feed()
        polls_without_news.append(len(epoch.local_latencies) == before)
        return epoch.done()

    assert not epoch.done()
    assert deployment.sim.run_until(poll, timeout=scenario.timeout_s)
    deployment.close()
    epoch.feed()
    assert proposed == leaders  # each once, in cluster order
    assert epoch.local_latencies == {0: 1.0, 1: 1.0}
    # exactly one poll (the one after the deciding event) fed anything
    assert polls_without_news.count(False) == 1
    assert epoch.done()


def _scan_settled(deployment, epoch):
    """``StreamingRun._epoch_complete`` as it scanned before ``Epoch``."""
    honest = deployment.honest_ids()
    eligible = [instance
                for node_id, instance in epoch.local_protocols.items()
                if node_id in honest and not deployment.nodes[node_id].crashed]
    if not eligible:
        return False
    locals_done = all(instance.decided for instance in eligible)
    if not deployment.scenario.is_multi_hop:
        return locals_done
    return locals_done and all(
        epoch.global_protocols[leader].decided
        for leader in deployment.global_runtimes if leader in honest)


def _scan_content_locked(deployment, epoch):
    """The body of ``StreamingRun._epoch_ready`` before ``Epoch``."""
    if deployment.scenario.is_multi_hop:
        return _scan_settled(deployment, epoch)
    return all(epoch.local_protocols[node_id].pipeline_ready
               for node_id in deployment.honest_ids()
               if node_id in epoch.local_protocols)


def test_settled_and_content_locked_agree_with_the_scans_they_replaced():
    """Differential, after every step of random decide / lock / crash
    sequences over honest, crashed and Byzantine nodes of both hop counts:
    the driver's two per-event answers equal the parent's scans, and on a
    single-hop deployment ``done()`` is the local deciders' latch (hazard:
    a driver watching only the global tier would be done at once)."""
    rng = random.Random(29)
    protocol = "honeybadger-sc"
    for trial in range(16):
        multi_hop = trial % 2 == 1
        scenario = Scenario.scale_multi_hop(2, 4) if multi_hop \
            else Scenario.scale_single_hop(rng.randrange(4, 8))
        node_ids = scenario.topology.all_node_ids()
        leaders = {cluster.node_ids[0] for cluster in scenario.topology.clusters}
        byzantine = {node_id: rng.choice(("crash", "garbage-proposer",
                                          "mute-proposer"))
                     for node_id in node_ids
                     if rng.random() < 0.25
                     and not (multi_hop and node_id in leaders)}
        scenario = scenario.with_byzantine(ByzantineSpec(assignments=byzantine))
        deployment = build_deployment(scenario, seed=SEED)
        epoch = Epoch(deployment, protocol)
        instances = list(epoch.local_protocols.items()) \
            + list(epoch.global_protocols.items())
        assert not epoch.done() and not epoch.settled()
        for _ in range(60):
            node_id, instance = rng.choice(instances)
            step = rng.random()
            if step < 0.6:
                instance._finish([b"block"])
            elif step < 0.8:
                instance._acs_output = {}  # content locked, not yet decided
            else:
                deployment.nodes[node_id].crash()
            assert epoch.settled() == _scan_settled(deployment, epoch)
            assert epoch.content_locked() \
                == _scan_content_locked(deployment, epoch)
            assert epoch.done() == all(
                instance.decided for instance in epoch.deciders.values())
        deployment.close()


#: (block digest, sim events, repr(latency_s), committed transactions, bytes
#: sent, observer digest) of the one-epoch cells of
#: ``test_seed_determinism.py``, recorded on the commit before
#: ``run_consensus`` moved onto ``Epoch`` (PR 19's parent); the sharded row
#: shares its observer digest with the classic one (same decisions, same
#: replay order).
PINNED_EPOCHS = {
    ("honeybadger-sc", None): (
        "d16b9c5e4e63a033b0b469edbd473f05fa9a2a78e624886f52713ef6cc3f6368",
        549, "10.134175226226914", 9, 5122,
        "6c4f5a1d4572e344aedf0944b60092b287f3912ffc1f4c92e335f128df25ea6c"),
    ("beat", None): (
        "d16b9c5e4e63a033b0b469edbd473f05fa9a2a78e624886f52713ef6cc3f6368",
        366, "6.89850187433052", 9, 3586,
        "6c4f5a1d4572e344aedf0944b60092b287f3912ffc1f4c92e335f128df25ea6c"),
    ("dumbo-sc", None): (
        "d16b9c5e4e63a033b0b469edbd473f05fa9a2a78e624886f52713ef6cc3f6368",
        957, "28.41729308355583", 9, 16107,
        "6c4f5a1d4572e344aedf0944b60092b287f3912ffc1f4c92e335f128df25ea6c"),
    ("beat", 0): (
        "2a7c1c3ffb72072ef726d8c94606589ba82a4dd526e0e7cd18a7e83eac029336",
        3784, "21.321600150283082", 27, 34830,
        "c3f900f7db64ae72272021cb4c826108ecf8cc451087c16c1e2bfab0f87a1f26"),
    ("beat", 2): (
        "2a7c1c3ffb72072ef726d8c94606589ba82a4dd526e0e7cd18a7e83eac029336",
        3977, "20.74849563327681", 27, 35222,
        "c3f900f7db64ae72272021cb4c826108ecf8cc451087c16c1e2bfab0f87a1f26"),
}


@pytest.mark.parametrize("protocol,shards", PINNED_EPOCHS)
def test_one_epoch_runs_through_the_driver_reproduce_the_recorded_figures(
        protocol, shards):
    """``shards`` None = ``run_consensus`` on 4 nodes (seed 31), 0 = the
    classic 4x4 multi-hop run (seed 32), 2 = the same run on two shards."""
    observer = RunObserver()
    small = dict(observer=observer, workload_spec=WorkloadSpec(
        batch_size=3, transaction_bytes=32))
    if shards is None:
        result = run_consensus(protocol, Scenario.single_hop(4), seed=31,
                               **small)
    else:
        result = run_multihop_consensus(protocol, Scenario.multi_hop(4, 4),
                                        seed=32, shards=shards or None,
                                        **small)
    assert (result.block_digest, result.sim_events, repr(result.latency_s),
            result.committed_transactions, result.bytes_sent,
            observer_digest(observer)) == PINNED_EPOCHS[protocol, shards]
