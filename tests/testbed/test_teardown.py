"""Tier-1 coverage for deployment teardown: runs free what they build.

Nodes, MACs, channels, transports, routers, components and protocols point
back at each other, so a finished deployment is one large reference cycle
unless something breaks it.  Every harness entry point closes its deployment
once its result is assembled (:meth:`Deployment.close`), and a stream's
released epochs close their components and protocols, so reference counting
alone frees a finished run.  Pinned here:

* with the cyclic collector disabled, one call of every entry point leaves
  nothing for ``gc.collect()`` to find;
* a closed deployment still answers the simulator counters and every trace
  total the ledger reads; closing twice does nothing;
* a run that raises is closed too;
* a stream's released epochs die by reference counting while the stream is
  still running.
"""

import gc
import weakref

import pytest

from repro.testbed import harness
from repro.testbed.harness import (
    Epoch,
    build_deployment,
    run_aba_experiment,
    run_broadcast_experiment,
    run_consensus,
    run_multihop_consensus,
)
from repro.testbed.ingress import ingress_profile
from repro.testbed.scenario_packs import load_pack
from repro.testbed.scenarios import Scenario
from repro.testbed.sharding import merge_traces
from repro.testbed.streaming import (
    StreamingRun,
    StreamingSpec,
    run_streaming_consensus,
)
from repro.testbed.workload import (
    ArrivalSpec,
    ChurnSpec,
    TransactionWorkload,
    WorkloadSpec,
)

SMALL_SPEC = WorkloadSpec(batch_size=3, transaction_bytes=32)
SMALL = dict(workload_spec=SMALL_SPEC)
ARRIVALS = ArrivalSpec(rate_tps=4.0, transaction_bytes=32, max_mempool=512)


def stream_spec(epochs: int = 3) -> StreamingSpec:
    return StreamingSpec(epochs=epochs, batch_size=3, arrival=ARRIVALS,
                         warmup=12)


def membership_stream() -> None:
    """A churn stream that crosses a boundary (so the boundary's close of
    the replaced runtimes is exercised)."""
    churn = ChurnSpec(initial_size=4, crash_times=(40.0,), horizon_s=100.0)
    result = run_streaming_consensus(
        "honeybadger-sc", Scenario.single_hop(5).with_membership(churn),
        stream_spec(epochs=6), seed=7)
    assert result.reconfigurations >= 1


def cyclic_garbage(run) -> int:
    """Objects the collector finds after ``run()`` with it disabled."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


RUNS = {
    **{f"{protocol}/{'batched' if batched else 'unbatched'}":
       (lambda protocol=protocol, batched=batched: run_consensus(
           protocol, Scenario.single_hop(4), batched=batched, seed=3,
           **SMALL))
       for protocol in ("honeybadger-sc", "beat", "dumbo-sc")
       for batched in (True, False)},
    "multihop": lambda: run_multihop_consensus(
        "honeybadger-sc", Scenario.multi_hop(2, 4), seed=3, **SMALL),
    "broadcast": lambda: run_broadcast_experiment(
        "rbc", parallelism=2, num_nodes=4, seed=3),
    "aba": lambda: run_aba_experiment("sc", parallel_instances=2,
                                      num_nodes=4, seed=3),
    "stream": lambda: run_streaming_consensus(
        "honeybadger-sc", Scenario.single_hop(4), stream_spec(), seed=3),
    "stream/ingress": lambda: run_streaming_consensus(
        "honeybadger-sc", Scenario.single_hop(4), stream_spec(), seed=3,
        ingress=ingress_profile("three-class-shed")),
    "stream/membership": membership_stream,
    "stream/pack": lambda: run_streaming_consensus(
        "honeybadger-sc", Scenario.single_hop(4).replace(timeout_s=3000.0),
        stream_spec(), seed=3, pack=load_pack("burst-loss")),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_entry_point_leaves_no_cyclic_garbage(name):
    assert cyclic_garbage(RUNS[name]) == 0


def _finished_deployment():
    deployment = build_deployment(Scenario.single_hop(4), seed=5)
    epoch = Epoch(deployment, "honeybadger-sc")
    epoch.propose(TransactionWorkload(SMALL_SPEC, seed=5))
    assert deployment.sim.run_until(epoch.done, timeout=600.0)
    return deployment


def _ledger_reads(deployment) -> dict:
    """What ``benchmarks/ledger/run.py`` reads off a captured deployment."""
    trace = merge_traces([deployment.trace])
    channels = list(trace.channels.values())
    return {
        "sim_events": deployment.sim.events_processed,
        "now": deployment.sim.now,
        "logical_messages_sent": sum(node.logical_messages_sent
                                     for node in trace.nodes.values()),
        "frames_sent": trace.total_frames_sent,
        "channel_accesses": trace.total_channel_accesses,
        "bytes_sent": trace.total_bytes_sent,
        "transmissions": sum(channel.transmissions for channel in channels),
        "collisions": trace.total_collisions,
        "channel_busy_virt_s": sum(channel.busy_time for channel in channels),
        "adversary_drops": trace.total_adversary_drops,
    }


def test_closed_deployment_answers_counters_and_trace():
    deployment = _finished_deployment()
    before = _ledger_reads(deployment)
    assert before["sim_events"] > 0 and before["frames_sent"] > 0
    deployment.close()
    assert _ledger_reads(deployment) == before
    assert deployment.sim.pending_events() == 0
    assert all(node.stack is None and not node.interfaces
               for node in deployment.nodes.values())


def test_close_twice_does_nothing():
    deployment = _finished_deployment()
    deployment.close()
    after_first = _ledger_reads(deployment)
    deployment.close()
    assert _ledger_reads(deployment) == after_first


def test_run_that_raises_is_closed(monkeypatch):
    built = []

    def recording_build(*args, **kwargs):
        built.append(build_deployment(*args, **kwargs))
        return built[-1]

    def failing_decisions(_epoch):
        raise RuntimeError("harvest failed")

    monkeypatch.setattr(harness, "build_deployment", recording_build)
    monkeypatch.setattr(Epoch, "decisions", failing_decisions)
    with pytest.raises(RuntimeError, match="harvest failed"):
        run_consensus("honeybadger-sc", Scenario.single_hop(4), seed=3,
                      **SMALL)
    (deployment,) = built
    assert deployment.sim.pending_events() == 0
    assert all(node.stack is None for node in deployment.nodes.values())


def test_released_epochs_die_by_reference_counting(monkeypatch):
    released = []
    release = Epoch.release

    def recording_release(epoch):
        release(epoch)
        released.extend(weakref.ref(instance) for instance in
                        epoch.local_protocols.values())

    monkeypatch.setattr(Epoch, "release", recording_release)
    run = StreamingRun("honeybadger-sc", Scenario.single_hop(4),
                       stream_spec(epochs=4), seed=29)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert run.run().decided
        # the runtimes still name the last epoch's instances; every earlier
        # epoch is gone while the deployment itself is still open
        last = {id(runtime.protocol)
                for runtime in run.deployment.runtimes.values()}
        alive = [ref() for ref in released if ref() is not None]
        assert len(released) == 16
        assert {id(instance) for instance in alive} <= last
    finally:
        if enabled:
            gc.enable()
