"""A Byzantine proposer whose agreed value is not a ciphertext.

ACS agrees on bytes; what HoneyBadgerBFT / BEAT then threshold-decrypt is
peer-controlled.  One proposer of four (``f = 1``) re-encodes its honest
ciphertext three ways.  Before the validity gate in
``HoneyBadger._on_acs_output`` the order-``2q`` ephemeral split the four nodes
over two block digests (seeds 4, 5, 7, 8 -- different ``f + 1`` share subsets
interpolate different plaintexts outside the group) and the truncated
encoding killed the run with a ``ThresholdEncError`` (seeds 1, 2, 4, 5, 8).
"""

import pytest

from repro.crypto.group import DEFAULT_GROUP
from repro.crypto.threshold_enc import ciphertext_to_bytes
from repro.protocols import honeybadger
from repro.testbed.harness import run_consensus
from repro.testbed.invariants import RunObserver
from repro.testbed.scenarios import Scenario
from repro.testbed.workload import WorkloadSpec

BYZANTINE = 3
BATCH_SIZE = 8


def negated_ephemeral(ciphertext) -> bytes:
    """``P - U``: order ``2q``, one sign away from the honest element."""
    twisted = DEFAULT_GROUP.p - ciphertext.ephemeral
    return twisted.to_bytes(40, "big") + ciphertext_to_bytes(ciphertext)[40:]


def truncated(ciphertext) -> bytes:
    return b"\x00" * 10


def zero_ephemeral(ciphertext) -> bytes:
    return bytes(40) + ciphertext_to_bytes(ciphertext)[40:]


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("attack",
                         [negated_ephemeral, truncated, zero_ephemeral],
                         ids=lambda attack: attack.__name__)
def test_one_digest_and_nothing_from_the_malformed_proposer(monkeypatch,
                                                            attack, seed):
    def encode(ciphertext):
        # the label names the proposer: hb|epoch|node
        if ciphertext.label.endswith(b"|%d" % BYZANTINE):
            return attack(ciphertext)
        return ciphertext_to_bytes(ciphertext)

    monkeypatch.setattr(honeybadger, "ciphertext_to_bytes", encode)
    observer = RunObserver()
    result = run_consensus("honeybadger-sc", Scenario.single_hop(4),
                           seed=seed, observer=observer,
                           workload_spec=WorkloadSpec(batch_size=BATCH_SIZE))
    assert result.decided
    assert len(result.per_node_digest) == 4
    assert len(set(result.per_node_digest.values())) == 1
    proposed = {proposal.node_id: set(proposal.transactions)
                for proposal in observer.proposals}
    committed = set(observer.decisions[0].transactions)
    assert not committed & proposed[BYZANTINE]
    # every honest batch the subset included commits whole: all three, or
    # two when the malformed proposal took one of the n - f places
    included = [node for node in proposed
                if node != BYZANTINE and proposed[node] <= committed]
    assert len(included) >= 2
    assert result.committed_transactions == BATCH_SIZE * len(included)
