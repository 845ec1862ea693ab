"""Unit tests for the conformance invariant checkers."""

import json
import math
import os
from types import SimpleNamespace

import pytest

from repro.protocols.base import block_digest
from repro.testbed.invariants import (
    ProposalRecord,
    RunObserver,
    check_agreement,
    check_all,
    check_liveness,
    check_total_order,
    check_validity,
)
from repro.testbed.metrics import (
    ClassRecord,
    CommitteeRecord,
    EpochRecord,
    PhaseRecord,
    StreamingRunResult,
    chain_digest,
)

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def observer_with(decisions, proposals=()):
    observer = RunObserver()
    for node_id, batch, kind in proposals:
        observer.record_proposal(node_id, batch, kind=kind)
    for node_id, block, time, domain in decisions:
        observer.record_decision(node_id, block, time, domain=domain)
    return observer


BLOCK = [b"tx-a", b"tx-b"]


class TestRecords:
    def test_proposal_kind_validated(self):
        with pytest.raises(ValueError):
            ProposalRecord(node_id=0, domain=0, transactions=(), kind="sneaky")

    def test_decision_digest_matches_block(self):
        observer = observer_with([(0, BLOCK, 1.0, 0)])
        assert observer.decisions[0].digest == block_digest(BLOCK)
        assert observer.decisions[0].transactions == tuple(BLOCK)

    def test_domains_preserve_order(self):
        observer = observer_with([(0, BLOCK, 1.0, "global"),
                                  (1, BLOCK, 1.0, ("cluster", 0)),
                                  (2, BLOCK, 1.0, "global")])
        assert observer.domains() == ["global", ("cluster", 0)]


class TestAgreement:
    def test_identical_blocks_agree(self):
        observer = observer_with([(0, BLOCK, 1.0, 0), (1, BLOCK, 2.0, 0)])
        assert check_agreement(observer).ok
        assert check_total_order(observer).ok

    def test_split_digests_flagged(self):
        observer = observer_with([(0, BLOCK, 1.0, 0), (1, [b"tx-c"], 2.0, 0)])
        verdict = check_agreement(observer)
        assert not verdict.ok and "split" in verdict.detail

    def test_domains_checked_independently(self):
        # Different blocks in *different* domains are fine (clusters commit
        # different local blocks); a split inside one domain is not.
        observer = observer_with([(0, BLOCK, 1.0, ("cluster", 0)),
                                  (1, [b"tx-z"], 1.0, ("cluster", 1))])
        assert check_agreement(observer).ok

    def test_total_order_catches_reordering(self):
        observer = observer_with([(0, [b"a", b"b"], 1.0, 0),
                                  (1, [b"b", b"a"], 1.0, 0)])
        assert not check_total_order(observer).ok


class TestValidity:
    def test_committed_from_proposals_ok(self):
        observer = observer_with(
            [(0, BLOCK, 1.0, 0)],
            proposals=[(0, [b"tx-a"], "honest"), (1, [b"tx-b"], "honest")])
        assert check_validity(observer).ok

    def test_fabricated_transaction_flagged(self):
        observer = observer_with(
            [(0, BLOCK, 1.0, 0)],
            proposals=[(0, [b"tx-a"], "honest")])
        verdict = check_validity(observer)
        assert not verdict.ok and "never proposed" in verdict.detail

    def test_equivocated_variants_count_as_proposed(self):
        observer = observer_with(
            [(0, [b"tx-evil"], 1.0, 0)],
            proposals=[(0, [b"tx-good"], "honest"),
                       (0, [b"tx-evil"], "equivocation")])
        assert check_validity(observer).ok


class TestLiveness:
    def test_expected_decision_present(self):
        observer = observer_with([(0, BLOCK, 5.0, 0)])
        assert check_liveness(observer, decided=True, expect_decision=True,
                              timeout_s=10.0).ok

    def test_timeout_without_decision_flagged(self):
        verdict = check_liveness(RunObserver(), decided=False,
                                 expect_decision=True, timeout_s=10.0)
        assert not verdict.ok

    def test_late_decisions_flagged(self):
        observer = observer_with([(0, BLOCK, 50.0, 0)])
        assert not check_liveness(observer, decided=True, expect_decision=True,
                                  timeout_s=10.0).ok

    def test_quorum_loss_expects_silence(self):
        assert check_liveness(RunObserver(), decided=False,
                              expect_decision=False, timeout_s=10.0).ok
        observer = observer_with([(0, BLOCK, 5.0, 0)])
        assert not check_liveness(observer, decided=False,
                                  expect_decision=False, timeout_s=10.0).ok

    def test_affected_domains_scope_the_expectation(self):
        # Multi-hop quorum loss on the backbone: clusters may still decide
        # locally, only a *global* decision would be a violation.
        local_only = observer_with([(0, BLOCK, 5.0, ("cluster", 0))])
        assert check_liveness(local_only, decided=False, expect_decision=False,
                              timeout_s=10.0,
                              affected_domains={"global"}).ok
        with_global = observer_with([(0, BLOCK, 5.0, "global")])
        assert not check_liveness(with_global, decided=False,
                                  expect_decision=False, timeout_s=10.0,
                                  affected_domains={"global"}).ok


CORE = ["liveness", "agreement", "total-order", "validity"]
RECONFIG = ["ledger-continuity-across-reconfig",
            "liveness-under-bounded-churn"]

#: the judge's verdict names, in order, per stream layer combination
#: ``(membership, ingress, pack)`` -- one-epoch and plain-stream runs carry
#: no layer; the rest are every combination the quick campaign holds
LAYER_VERDICTS = {
    (False, False, False): CORE,
    (True, False, False): CORE + RECONFIG,
    (False, True, False): CORE + ["ingress-conservation"],
    (False, False, True): CORE + ["ledger-continuity", "scenario-recovery"],
    (True, True, False): CORE + RECONFIG + ["ingress-conservation"],
}

def healing_phases() -> list[PhaseRecord]:
    """The phase records of a nominal / outage / recovered pack whose one
    heal is at 20 s, when the synthetic stream's last epoch starts."""
    return [PhaseRecord(index, name, start_s=10.0 * index,
                        end_s=10.0 * index + 10.0 if index < 2 else math.inf,
                        degraded=name == "outage", epochs=1,
                        committed_transactions=1, throughput_tps=0.2,
                        p50_latency_s=5.0, adversary_drops=0)
            for index, name in enumerate(("nominal", "outage", "recovered"))]


def synthetic_run(membership: bool, ingress: bool, pack: bool = False):
    """A green three-epoch stream carrying the requested layers, plus the
    observer of its decisions (one domain per epoch)."""
    observer = RunObserver()
    per_epoch, ledger = [], ""
    for epoch in range(3):
        block = [f"tx-{epoch}".encode()]
        observer.record_proposal(0, block)
        for node_id in range(4):
            observer.record_decision(node_id, block, 10.0 * epoch + 5.0,
                                     domain=epoch)
        per_epoch.append(EpochRecord(
            epoch=epoch, start_s=10.0 * epoch, decide_s=10.0 * epoch + 5.0,
            latency_s=5.0, committed_transactions=1,
            block_digest=block_digest(block), backlog_max=0,
            backlog_mean=0.0))
        ledger = chain_digest(ledger, block_digest(block))
    result = StreamingRunResult(
        protocol="beat", num_nodes=4, epochs_target=3,
        epochs_completed=3, decided=True, pipeline_depth=0,
        offered_load_tps=1.0, per_epoch=per_epoch, ledger_digest=ledger,
        committees=[CommitteeRecord(epoch=epoch, members=(0, 1, 2, 3))
                    for epoch in range(3)] if membership else [],
        classes=[ClassRecord("high", 0, offered=3, admitted=3, shed=0,
                             deferred_pending=0, duplicates=0, committed=3,
                             p50_latency_s=5.0, p90_latency_s=5.0,
                             p99_latency_s=5.0)] if ingress else [],
        phases=healing_phases() if pack else [])
    return observer, result


class TestCheckAll:
    def test_safety_checked_even_without_liveness_expectation(self):
        observer = observer_with([(0, BLOCK, 1.0, ("cluster", 0)),
                                  (1, [b"x"], 1.0, ("cluster", 0))])
        verdicts = {verdict.name: verdict.ok
                    for verdict in check_all(observer,
                                             SimpleNamespace(decided=False),
                                             10.0, expect_decision=False,
                                             affected_domains={"global"})}
        assert verdicts["no-decision-without-quorum"]
        assert not verdicts["agreement"]  # the local split must still surface

    def test_green_run_produces_four_verdicts(self):
        observer = observer_with(
            [(0, BLOCK, 1.0, 0), (1, BLOCK, 2.0, 0)],
            proposals=[(0, [b"tx-a", b"tx-b"], "honest")])
        # a one-epoch result carries no stream layer: the core verdicts only
        verdicts = check_all(observer, SimpleNamespace(decided=True), 10.0)
        assert [verdict.name for verdict in verdicts] == CORE
        assert all(verdict.ok for verdict in verdicts)


class TestJudgeLayers:
    """``check_all`` picks every stream layer's gates from the result."""

    @pytest.mark.parametrize("layers", sorted(LAYER_VERDICTS))
    def test_verdict_names_follow_the_layers(self, layers):
        observer, result = synthetic_run(*layers)
        verdicts = check_all(observer, result, 100.0)
        assert [verdict.name for verdict in verdicts] == LAYER_VERDICTS[layers]
        assert all(verdict.ok for verdict in verdicts), verdicts

    def test_committed_campaign_cells_match_the_judge(self):
        # Every cell of the committed artifact recorded exactly the verdicts
        # the judge gives its layers; nothing is run.
        with open(os.path.join(_ROOT, "CAMPAIGN.json")) as handle:
            cells = json.load(handle)["cells"]
        seen = set()
        for cell in cells:
            layers = (bool(cell["committees"]), bool(cell["ingress"]),
                      bool(cell["scenario"]))
            seen.add(layers)
            observer, result = synthetic_run(*layers)
            names = [verdict.name for verdict in check_all(
                observer, result, 100.0,
                expect_decision=cell["expect_decision"])]
            assert [verdict["name"] for verdict in cell["invariants"]] == \
                names, cell["cell_id"]
        assert seen == set(LAYER_VERDICTS)
