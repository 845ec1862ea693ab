"""Differential test: the ABA round records against their set forms.

:class:`CachinAba` and :class:`BrachaAba` count voters as bits of an int;
:class:`tests.reference.ReferenceCachinAba` and
:class:`tests.reference.ReferenceBrachaAba` are the same rounds with a set
of node ids per tally.  Both sides of a pair are node 0 of the same
committee and get the same random in-model schedule: every peer's votes for
a few rounds, duplicated (NACK repair) and shuffled (so AUX arrives before
BVAL, and a round's votes before the round), garbage and aliased values,
DECIDED notices and coin reveals.  A node's own broadcast is handed straight
back to it inside the send, as a transport does.  After every step both must
have logged the same sends, coin requests and decisions in the same order.
"""

import random

import pytest

from repro.components.aba_bracha import BrachaAba
from repro.components.aba_cachin import CachinAba
from repro.components.base import ComponentContext
from repro.net.topology import faults_tolerated

from tests.helpers import make_message
from tests.reference import ReferenceBrachaAba, ReferenceCachinAba

OWN = 0
#: values a peer may put where a bit belongs: garbage, and aliases of 1
ODD_VALUES = (-1, 2, 2**70, None, "x", True, 1.0)


class _Loopback:
    """The node under test's transport: logs each send, then delivers it
    to the instance before returning."""

    def __init__(self, log):
        self.log = log
        self.instance = None

    def activate(self, key):
        pass

    def mark_complete(self, key):
        pass

    def send(self, message):
        self.log.append(("send", message.phase, message.round,
                         message.payload, message.slot))
        self.instance.handle(message)


class _Coin:
    """A coin manager whose reveals the schedule releases: a ``coin`` step
    answers every request made so far, oldest first."""

    def __init__(self, log, coins):
        self.log = log
        self.coins = coins
        self.pending = []

    def request(self, round_number, callback):
        self.log.append(("coin requested", round_number))
        self.pending.append((round_number, callback))

    def reveal(self):
        pending, self.pending = self.pending, []
        for round_number, callback in pending:
            callback(round_number, self.coins[round_number % len(self.coins)])


def _node(cls, num_nodes, seed, coins):
    log = []
    transport = _Loopback(log)
    ctx = ComponentContext(node_id=OWN, num_nodes=num_nodes,
                           faults=faults_tolerated(num_nodes),
                           transport=transport, suite=None, sim=None,
                           rng=random.Random(seed))
    if cls in (CachinAba, ReferenceCachinAba):
        coin = _Coin(log, coins)
        instance = cls(ctx, 0, coin=coin, tag="t")
    else:
        coin = None
        instance = cls(ctx, 0, tag="t")
    instance.on_output = lambda _inst, value: log.append(("decide", value))
    transport.instance = instance
    return instance, coin, log


def _value(rng, usual):
    return rng.choice(ODD_VALUES) if rng.random() < 0.05 else usual


def _shuffled_with_repairs(rng, steps):
    steps = [step for step in steps if rng.random() < 0.92]  # lost for good
    steps += rng.choices(steps, k=len(steps) // 4)  # repaired duplicates
    rng.shuffle(steps)
    return steps


def _cachin_schedule(rng, num_nodes, rounds=3):
    steps = []
    for round_number in range(rounds):
        common = rng.randrange(2)
        for sender in range(num_nodes):
            estimate = common if rng.random() < 0.8 else 1 - common
            voted = [estimate] + ([1 - estimate] if rng.random() < 0.4 else [])
            for value in voted:
                steps.append(("bval", sender, round_number,
                              _value(rng, value)))
            aux = voted[-1] if rng.random() < 0.1 else estimate
            steps.append(("aux", sender, round_number, _value(rng, aux)))
        steps += [("coin",)] * 3
    steps += [("decided", rng.randrange(num_nodes), 0,
               _value(rng, rng.randrange(2)))
              for _ in range(rng.randrange(num_nodes))]
    steps = _shuffled_with_repairs(rng, steps)
    steps.insert(rng.randrange(len(steps) + 1), ("start", rng.randrange(2)))
    return steps


def _bracha_schedule(rng, num_nodes, rounds=2):
    steps = []
    for round_number in range(rounds):
        for phase in (1, 2, 3):
            common = rng.choice((0, 1, "?") if phase == 3 else (0, 1))
            for voter in range(num_nodes):
                agreed = _value(rng, common if rng.random() < 0.8
                                else rng.choice((0, 1, "?")))
                if voter != OWN:
                    steps.append((f"p{phase}_initial", voter, round_number,
                                  {"value": agreed}))
                for sender in range(1, num_nodes):
                    echoed = agreed if rng.random() < 0.85 else rng.choice((0, 1))
                    steps.append((f"p{phase}_echo", sender, round_number,
                                  {"voter": voter, "value": echoed}))
                    if rng.random() < 0.7:
                        steps.append((f"p{phase}_ready", sender, round_number,
                                      {"voter": voter, "value": agreed}))
            # a vote for a voter id no node has
            steps.append((f"p{phase}_ready", rng.randrange(1, num_nodes),
                          round_number, {"voter": rng.choice((-1, 2**70, "x")),
                                         "value": 1}))
    steps += [("decided", rng.randrange(num_nodes), 0,
               {"value": _value(rng, rng.randrange(2))})
              for _ in range(rng.randrange(num_nodes))]
    steps = _shuffled_with_repairs(rng, steps)
    steps.insert(rng.randrange(len(steps) + 1), ("start", rng.randrange(2)))
    return steps


def _apply(instance, coin, step, kind):
    if step[0] == "start":
        instance.start(step[1])
    elif step[0] == "coin":
        coin.reveal()
    else:
        phase, sender, round_number, payload = step
        if kind == "aba_sc":
            payload = {"value": payload}
        instance.handle(make_message(kind, 0, phase, sender, payload,
                                     tag="t", round_number=round_number))


def _observable(instance):
    return (instance.round, instance.estimate, instance.decided_value,
            instance.completed, instance._halted, instance.rounds_executed)


def _run_pair(cls, reference, schedule, num_nodes, seed, coins):
    node, node_coin, log = _node(cls, num_nodes, seed, coins)
    ref, ref_coin, ref_log = _node(reference, num_nodes, seed, coins)
    for step in schedule:
        _apply(node, node_coin, step, cls.kind)
        _apply(ref, ref_coin, step, cls.kind)
        assert log == ref_log, step
        assert _observable(node) == _observable(ref), step
    return node


@pytest.mark.parametrize("num_nodes,trials", [(4, 300), (7, 150), (10, 80),
                                              (67, 20)])
def test_cachin_rounds_match_the_set_form(num_nodes, trials):
    rng = random.Random(num_nodes)
    rounds = decided = 0
    for trial in range(trials):
        coins = [rng.randrange(2) for _ in range(4)]
        node = _run_pair(CachinAba, ReferenceCachinAba,
                         _cachin_schedule(rng, num_nodes), num_nodes, trial,
                         coins)
        rounds += node.rounds_executed
        decided += node.completed
    # the schedules reach the round logic, not just the tallies
    assert rounds >= trials // 3 and decided >= trials // 5


@pytest.mark.parametrize("num_nodes,trials", [(4, 200), (7, 60), (10, 20)])
def test_bracha_rounds_match_the_set_form(num_nodes, trials):
    rng = random.Random(num_nodes)
    phases = decided = 0
    for trial in range(trials):
        node = _run_pair(BrachaAba, ReferenceBrachaAba,
                         _bracha_schedule(rng, num_nodes), num_nodes, trial,
                         None)
        phases += sum(state.completed_phases.bit_count()
                      for state in node._rounds.values())
        decided += node.completed
    assert phases >= trials // 2 and decided >= 1
