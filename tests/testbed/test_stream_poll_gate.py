"""The stream's poll gate: the body of ``StreamingRun._poll`` runs only when
``sim.milestones`` moved (a decision, a locked common subset, a crash).

Differential: a gate-off twin forgets the counter before every call, so its
body runs after every event, as the loop did before the gate.  Both must
return equal results on every stream shape whose poll reads a milestone --
pipelined and sequential epochs of the three protocol families under both
pipeline gates, churn with a crash and a join, the mid-stream ``epoch-crash``
fault, a scenario pack, a shedding ingress and a multi-hop stream.  A bump
site dropped from the source moves at least one of them (the locked gate
starts the next epoch later, a crash that settles an epoch goes unseen).
"""

import pytest

from repro.protocols.base import ConsensusProtocol
from repro.testbed import streaming
from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.ingress import ingress_profile
from repro.testbed.membership import MembershipSchedule
from repro.testbed.scenario_packs import load_pack
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus
from repro.testbed.workload import ArrivalSpec

ARRIVALS = ArrivalSpec(rate_tps=4.0, transaction_bytes=32, max_mempool=512)


class UngatedRun(streaming.StreamingRun):
    """The gate-off twin: every poll runs the body."""

    def _poll(self) -> bool:
        self._polled_at = None
        return super()._poll()


def spec(**overrides) -> StreamingSpec:
    fields = dict(epochs=4, batch_size=3, arrival=ARRIVALS, warmup=12)
    fields.update(overrides)
    return StreamingSpec(**fields)


def assert_gate_is_invisible(monkeypatch, **args):
    gated = run_streaming_consensus(**args)
    with monkeypatch.context() as patch:
        patch.setattr(streaming, "StreamingRun", UngatedRun)
        ungated = run_streaming_consensus(**args)
    assert gated.decided
    assert gated == ungated


#: (the pipeline gate only matters past depth 0)
PIPELINES = [(0, "locked")] + [(depth, gate) for depth in (1, 2)
                               for gate in ("locked", "eager")]


@pytest.mark.parametrize("protocol", ["honeybadger-sc", "beat", "dumbo-sc"])
@pytest.mark.parametrize("depth,gate", PIPELINES)
def test_pipelines(monkeypatch, protocol, depth, gate):
    assert_gate_is_invisible(
        monkeypatch, protocol=protocol, scenario=Scenario.single_hop(4),
        spec=spec(pipeline_depth=depth, pipeline_gate=gate), seed=3)


def test_membership_crash_and_join(monkeypatch):
    schedule = MembershipSchedule(
        range(6), range(5), events=((12.0, "crash", 4), (20.0, "join", 5)))
    assert_gate_is_invisible(
        monkeypatch, protocol="honeybadger-sc",
        scenario=Scenario.single_hop(6), spec=spec(epochs=5),
        membership=schedule, seed=7)


def test_a_crash_that_settles_an_epoch(monkeypatch):
    """The crash is epoch 0's last milestone: every other member has
    decided it, and the last one to decide crashes just before it would.
    (A crash earlier than that is followed by a decision, whose milestone
    would hide a missed one.)"""
    decisions = []
    finish = ConsensusProtocol._finish

    def recording(protocol, block):
        if not protocol.decided:
            decisions.append((protocol.ctx.sim.now, protocol.ctx.node_id))
        finish(protocol, block)

    args = dict(protocol="honeybadger-sc", scenario=Scenario.single_hop(5),
                seed=5)
    with monkeypatch.context() as patch:
        patch.setattr(ConsensusProtocol, "_finish", recording)
        run_streaming_consensus(spec=spec(epochs=1), **args)
    (before, _), (last, victim) = sorted(decisions)[-2:]
    assert before < last
    # up to the crash the stream below replays the probe above
    schedule = MembershipSchedule(
        range(5), range(5), events=(((before + last) / 2, "crash", victim),))
    assert_gate_is_invisible(monkeypatch, spec=spec(epochs=3),
                             membership=schedule, **args)


def test_epoch_crash(monkeypatch):
    assert_gate_is_invisible(
        monkeypatch, protocol="honeybadger-sc",
        scenario=Scenario.single_hop(4).with_byzantine(ByzantineSpec(
            assignments={3: "epoch-crash"})),
        spec=spec(pipeline_depth=1), seed=11)


def test_scenario_pack(monkeypatch):
    assert_gate_is_invisible(
        monkeypatch, protocol="beat", scenario=Scenario.single_hop(4),
        spec=spec(epochs=3), pack=load_pack("burst-loss"), seed=3)


def test_shedding_ingress(monkeypatch):
    assert_gate_is_invisible(
        monkeypatch, protocol="honeybadger-sc",
        scenario=Scenario.scale_single_hop(4),
        spec=StreamingSpec(epochs=4, batch_size=4, arrival=ArrivalSpec(
            rate_tps=120.0, transaction_bytes=48, max_mempool=256)),
        ingress=ingress_profile("three-class-shed"), seed=3)


def test_multi_hop(monkeypatch):
    assert_gate_is_invisible(
        monkeypatch, protocol="honeybadger-sc",
        scenario=Scenario.multi_hop(2, 4),
        spec=spec(epochs=2, pipeline_depth=1), seed=3)


def test_the_gate_skips_most_polls(monkeypatch):
    """The gate is on: most polls of a stream return without a body."""
    polls, bodies = 0, 0
    original = streaming.StreamingRun._poll

    def counting(run):
        nonlocal polls, bodies
        before = run._polled_at
        answer = original(run)
        polls += 1
        bodies += run._polled_at != before
        return answer

    monkeypatch.setattr(streaming.StreamingRun, "_poll", counting)
    result = run_streaming_consensus("honeybadger-sc", Scenario.single_hop(4),
                                     spec(), seed=3)
    assert result.decided and polls == result.sim_events + 1
    assert 0 < bodies * 10 < polls
