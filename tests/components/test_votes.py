"""Differential test: :class:`BrachaVotes` against the quorum scan it replaced.

``_QuorumScan`` is the rule as the broadcasts hand-wrote it before the vote
machine existed (RBC-small's ``_check_quorums``: every tally re-scanned after
every vote, READY sent from inside the loop).  Both sides get the same
in-model vote sequences -- at most ``f`` senders vote several keys, the
honest ones send one ECHO and one READY for the key the honest nodes agree on
-- and must send the same READY at the same position and name the same
deliverable key after every step.  The own READY loops back into the tally
*inside* the send, as a transport delivers a node its own broadcast.
"""

import random

import pytest

from repro.components.votes import NOTHING, BrachaVotes

KEYS = (None, 0, 1, "h")  # None is a vote: RBC-small's BOT
OWN = 0


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


def _looped_back(cls, quorum, small_quorum, log):
    """An instance whose READY is logged and handed straight back to it."""
    def send_ready(key):
        log.append(("ready sent", key, votes.deliverable))
        votes.ready(key, OWN)
        log.append(("own ready counted", votes.deliverable))
    votes = cls(quorum, small_quorum, send_ready)
    return votes


def _in_model_sequence(rng, num_nodes, faults):
    faulty = set(rng.sample(range(1, num_nodes), faults))
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
        if sender != OWN:  # the own READY is the rule's to send
            steps.append(("ready", agreed, sender))
    steps = [step for step in steps if rng.random() < 0.9]  # lost for good
    steps += rng.choices(steps, k=len(steps) // 3) if steps else []  # repair
    rng.shuffle(steps)
    return steps


@pytest.mark.parametrize("num_nodes", [4, 7, 10])
def test_same_readies_in_the_same_position_and_same_deliverable_key(num_nodes):
    faults = (num_nodes - 1) // 3
    quorum, small_quorum = 2 * faults + 1, faults + 1
    rng = random.Random(num_nodes)
    sent = delivered = 0
    for _ in range(300):
        scan_log, votes_log = [], []
        scan = _looped_back(_QuorumScan, quorum, small_quorum, scan_log)
        votes = _looped_back(BrachaVotes, quorum, small_quorum, votes_log)
        for phase, key, sender in _in_model_sequence(rng, num_nodes, faults):
            getattr(scan, phase)(key, sender)
            getattr(votes, phase)(key, sender)
            assert votes_log == scan_log
            assert votes.ready_sent == scan.ready_sent
            assert votes.deliverable is scan.deliverable \
                or votes.deliverable == scan.deliverable
        assert len(votes_log) in (0, 2)  # READY goes out at most once
        sent += votes.ready_sent
        delivered += votes.deliverable is not NOTHING
    assert sent > 150 and delivered > 100  # the sequences reach the rule


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
