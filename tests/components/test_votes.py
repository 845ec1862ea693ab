"""Differential test: :class:`BrachaVotes` against the quorum scan it replaced.

``_QuorumScan`` is the rule as the broadcasts hand-wrote it before the vote
machine existed (RBC-small's ``_check_quorums``: every tally re-scanned after
every vote, READY sent from inside the loop), and
:class:`tests.reference.ReferenceBrachaVotes` is the vote machine as it was
before voters became bits (a set of ids per key).  All sides get the same
in-model vote sequences -- at most ``f`` senders vote several keys, the
honest ones send one ECHO and one READY for the key the honest nodes agree on
-- and must send the same READY at the same position and name the same
deliverable key after every step.  The own READY loops back into the tally
*inside* the send, as a transport delivers a node its own broadcast.  At
``n = 100`` (the size ``Scenario.scale_single_hop`` reaches) the voter ids
run past 64, so a tally spans more than one machine word.
"""

import dataclasses
import random

import pytest

from repro.components import rbc, rbc_small
from repro.components.votes import NOTHING, BrachaVotes
from repro.testbed.harness import run_broadcast_experiment
from repro.testbed.scenarios import Scenario

from tests.reference import ReferenceBrachaVotes

KEYS = (None, 0, 1, "h")  # None is a vote: RBC-small's BOT


class _QuorumScan:
    def __init__(self, quorum, small_quorum, send_ready):
        self.quorum, self.small_quorum = quorum, small_quorum
        self.send_ready = send_ready
        self.echoes, self.readies = {}, {}
        self.ready_sent = False
        self.deliverable = NOTHING

    def echo(self, key, sender):
        self.echoes.setdefault(key, set()).add(sender)
        self._check_quorums()

    def ready(self, key, sender):
        self.readies.setdefault(key, set()).add(sender)
        self._check_quorums()

    def _check_quorums(self):
        for key, echoers in self.echoes.items():
            if len(echoers) >= self.quorum and not self.ready_sent:
                self._send_ready(key)
        for key, readiers in self.readies.items():
            if len(readiers) >= self.small_quorum and not self.ready_sent:
                self._send_ready(key)
            if len(readiers) >= self.quorum:
                self.deliverable = key

    def _send_ready(self, key):
        self.ready_sent = True
        self.send_ready(key)


def _looped_back(cls, quorum, small_quorum, log, own=0):
    """An instance whose READY is logged and handed straight back to it."""
    def send_ready(key):
        log.append(("ready sent", key, votes.deliverable))
        votes.ready(key, own)
        log.append(("own ready counted", votes.deliverable))
    votes = cls(quorum, small_quorum, send_ready)
    return votes


def _in_model_sequence(rng, num_nodes, faults, own):
    faulty = set(rng.sample([node for node in range(num_nodes) if node != own],
                            faults))
    agreed = rng.choice(KEYS)
    steps = []
    for sender in range(num_nodes):
        if sender in faulty:
            steps += [(rng.choice(("echo", "ready")), rng.choice(KEYS), sender)
                      for _ in range(rng.randrange(7))]
            continue
        # an equivocating proposer can split the honest echoes
        echoed = agreed if rng.random() < 0.8 else rng.choice(KEYS)
        steps.append(("echo", echoed, sender))
        if sender != own:  # the own READY is the rule's to send
            steps.append(("ready", agreed, sender))
    steps = [step for step in steps if rng.random() < 0.9]  # lost for good
    steps += rng.choices(steps, k=len(steps) // 3) if steps else []  # repair
    rng.shuffle(steps)
    return steps


@pytest.mark.parametrize("num_nodes,own,trials", [
    (4, 0, 300), (7, 0, 300), (10, 0, 300), (10, 9, 100), (100, 0, 60),
    (100, 99, 60)], ids=["4", "7", "10", "10-own9", "100", "100-own99"])
def test_same_readies_in_the_same_position_and_same_deliverable_key(
        num_nodes, own, trials):
    faults = (num_nodes - 1) // 3
    quorum, small_quorum = 2 * faults + 1, faults + 1
    rng = random.Random(num_nodes * 1000 + own)
    sent = delivered = 0
    for _ in range(trials):
        scan_log, sets_log, votes_log = [], [], []
        scan = _looped_back(_QuorumScan, quorum, small_quorum, scan_log, own)
        sets = _looped_back(ReferenceBrachaVotes, quorum, small_quorum,
                            sets_log, own)
        votes = _looped_back(BrachaVotes, quorum, small_quorum, votes_log, own)
        for phase, key, sender in _in_model_sequence(rng, num_nodes, faults,
                                                     own):
            getattr(scan, phase)(key, sender)
            getattr(sets, phase)(key, sender)
            getattr(votes, phase)(key, sender)
            assert votes_log == scan_log == sets_log
            assert votes.ready_sent == scan.ready_sent == sets.ready_sent
            assert votes.deliverable is scan.deliverable \
                or votes.deliverable == scan.deliverable
            assert votes.deliverable is sets.deliverable \
                or votes.deliverable == sets.deliverable
        assert len(votes_log) in (0, 2)  # READY goes out at most once
        for key, voters in votes.echoes.items():
            assert voters == sum(1 << sender for sender in sets.echoes[key])
        for key, voters in votes.readies.items():
            assert voters == sum(1 << sender for sender in sets.readies[key])
        sent += votes.ready_sent
        delivered += votes.deliverable is not NOTHING
    assert sent > trials // 2 and delivered > trials // 3  # the rule is reached


@pytest.mark.parametrize("component,module", [("rbc-small", rbc_small),
                                              ("rbc", rbc)])
def test_a_hundred_node_broadcast_runs_as_with_sets(monkeypatch, component,
                                                    module):
    """Ids up to 99 through a real deployment: the same run, frame for
    frame, as with the set tallies."""
    def run():
        return dataclasses.asdict(run_broadcast_experiment(
            component, scenario=Scenario.scale_single_hop(100), seed=3))
    bits = run()
    monkeypatch.setattr(module, "BrachaVotes", ReferenceBrachaVotes)
    assert bits["completed"] and run() == bits


def test_own_ready_completes_inside_the_send():
    """n = 4: the second READY sends ours, which is the third: deliverable
    before ``send_ready`` returns, not after the caller gets control back."""
    log = []
    votes = _looped_back(BrachaVotes, 3, 2, log)
    votes.ready(None, 1)
    assert not log and votes.deliverable is NOTHING
    votes.ready(None, 2)
    assert log == [("ready sent", None, NOTHING), ("own ready counted", None)]
    assert votes.deliverable is None
