"""The seed implementations the fast paths are pinned against, and the
test-only helpers they need.

Uncached and naive on purpose: the bit-identity property tests compare the
library's tables, memos and Jacobi tests with these, and
``benchmarks/bench_hotpath_micro.py`` times them as the "before" rows.
Nothing in ``src/`` calls them.  Builtin ``pow`` throughout, never
``Group.exp``: a reference must not run through the known-log memo it is
compared against.  :class:`ReferenceSimulator` is the event kernel as
it was before an event became its heap entry.  :class:`ReferenceBrachaVotes`,
:class:`ReferenceCachinAba` and :class:`ReferenceBrachaAba` are the vote
tallies and ABA round records as they were before voters became bits: a
``set`` of node ids per key.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random
from collections import defaultdict
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.components.aba_bracha import UNDETERMINED
from repro.components.base import Component
from repro.components.votes import NOTHING
from repro.crypto.field import PrimeField, _share_points
from repro.crypto.group import ChaumPedersenProof, Group, _challenge


def unstamped(artefact):
    """An equal copy of a signature or share that must be verified the long
    way: a test that signs and then verifies in one process would otherwise
    measure its maker's stamp (a tuple comparison)."""
    return dataclasses.replace(artefact)


def power_of_g_reference(group: Group, exponent: int) -> int:
    """``g ** exponent`` by builtin ``pow``."""
    return pow(group.g, exponent % group.q, group.p)


def is_member_reference(group: Group, a: int) -> bool:
    """Membership by ``a^q == 1 mod p``, uncached."""
    if not 1 <= a < group.p:
        return False
    return pow(a, group.q, group.p) == 1


def hash_to_group_reference(group: Group, *parts: bytes) -> int:
    """Uncached hash-to-group."""
    exponent = group.hash_to_scalar(b"h2g", *parts)
    # Avoid the identity element, which would break share verification.
    return power_of_g_reference(group, exponent if exponent != 0 else 1)


def verify_dlog_equality_reference(group: Group, proof: ChaumPedersenProof,
                                   base_h: int, value_g: int, value_h: int,
                                   context: bytes = b"") -> bool:
    """Chaum-Pedersen verification past every cache and fast path: naive
    membership tests and four full ``pow()`` calls per proof."""
    if not (is_member_reference(group, value_g)
            and is_member_reference(group, value_h)):
        return False
    challenge = _challenge(group, context, base_h, value_g, value_h,
                           proof.commitment_g, proof.commitment_h)
    p, q = group.p, group.q
    lhs_g = power_of_g_reference(group, proof.response)
    rhs_g = group.mul(proof.commitment_g, pow(value_g, challenge % q, p))
    if lhs_g != rhs_g:
        return False
    lhs_h = pow(base_h, proof.response % q, p)
    rhs_h = group.mul(proof.commitment_h, pow(value_h, challenge % q, p))
    return lhs_h == rhs_h


def lagrange_coefficients_at_zero_reference(field: PrimeField,
                                            xs: Sequence[int]) -> list[int]:
    """Lagrange coefficients at zero, uncached, by field division."""
    q = field.q
    points = _share_points(field, xs)
    coefficients = []
    for i, x_i in enumerate(points):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(points):
            if i == j:
                continue
            numerator = numerator * -x_j % q
            denominator = denominator * (x_i - x_j) % q
        coefficients.append(numerator * pow(denominator, -1, q) % q)
    return coefficients


class ReferenceEvent:
    """A scheduled callback as an object of its own (the reference kernel's
    event, label and all)."""

    __slots__ = ("time", "seq", "callback", "cancelled", "label",
                 "_cancel_tally")

    def __init__(self, time: float, seq: int, callback: Callable[[], None],
                 label: str, cancel_tally: Optional[list]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label
        self._cancel_tally = cancel_tally

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self._cancel_tally is not None:
                self._cancel_tally[0] += 1


class ReferenceSimulator:
    """The event kernel with ``(time, seq, ReferenceEvent)`` heap entries.

    Same scheduling API as :class:`repro.net.sim.Simulator` (plus ``label``),
    and ``cancel(event)`` so one driver can run both.  It compacts on push
    where the kernel compacts on cancel; neither changes which callback runs
    when, so only ``pending_events`` may differ once 64 cancellations queue.
    """

    _COMPACT_MIN_CANCELLED = 64

    def __init__(self, seed: int = 0) -> None:
        self._queue: list = []
        self._seq = itertools.count()
        self.now = 0.0
        self.rng = random.Random(seed)
        self.seed = seed
        self.events_processed = 0
        self._cancelled_queued = [0]
        self.milestones = 0

    def schedule(self, delay: float, callback: Callable[[], None],
                 label: str = "") -> ReferenceEvent:
        if delay != delay or delay < 0:
            raise ValueError(f"bad delay {delay} for {label!r}")
        return self._push(self.now + delay, callback, label)

    def schedule_at(self, when: float, callback: Callable[[], None],
                    label: str = "") -> ReferenceEvent:
        if when != when or when < self.now:
            raise ValueError(f"bad time {when} for {label!r}")
        return self._push(when, callback, label)

    def _push(self, when: float, callback: Callable[[], None],
              label: str) -> ReferenceEvent:
        event = ReferenceEvent(when, next(self._seq), callback, label,
                               self._cancelled_queued)
        heapq.heappush(self._queue, (when, event.seq, event))
        cancelled = self._cancelled_queued[0]
        if (cancelled >= self._COMPACT_MIN_CANCELLED
                and cancelled * 2 > len(self._queue)):
            self._queue[:] = [entry for entry in self._queue
                              if not entry[2].cancelled]
            heapq.heapify(self._queue)
            self._cancelled_queued[0] = 0
        return event

    @staticmethod
    def cancel(event: ReferenceEvent) -> None:
        event.cancel()

    # The run loops as they were, line for line: the micro-benchmark times
    # this class as the kernel's "before" row.

    def run_window(self, until: float,
                   poll: Optional[Callable[[], None]] = None) -> int:
        if not until >= self.now:
            raise ValueError(f"cannot run until {until}")
        processed = 0
        queue = self._queue
        pop = heapq.heappop
        while queue:
            when, _, event = queue[0]
            if when > until:
                break
            pop(queue)
            if event.cancelled:
                self._cancelled_queued[0] -= 1
                continue
            event._cancel_tally = None
            self.now = when
            event.callback()
            self.events_processed += 1
            processed += 1
            if poll is not None:
                poll()
        if until > self.now:
            self.now = until
        return processed

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        if not timeout >= 0:
            raise ValueError(f"bad timeout {timeout}")
        deadline = self.now + timeout
        if predicate():
            return True
        queue = self._queue
        pop = heapq.heappop
        while queue:
            when, _, event = queue[0]
            if when > deadline:
                self.now = deadline
                return predicate()
            pop(queue)
            if event.cancelled:
                self._cancelled_queued[0] -= 1
                continue
            event._cancel_tally = None
            self.now = when
            event.callback()
            self.events_processed += 1
            if predicate():
                return True
        return predicate()

    def pending_events(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        self._queue.clear()
        self._cancelled_queued[0] = 0

    def next_event_time(self) -> Optional[float]:
        while self._queue:
            when, _, event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                self._cancelled_queued[0] -= 1
                continue
            return when
        return None


class ReferenceBrachaVotes:
    """:class:`repro.components.votes.BrachaVotes` with a set of voter ids
    per key.  ``ready`` needs no re-read after ``send_ready``: the live set
    it tests is the one the looped-back own READY was added to."""

    def __init__(self, quorum: int, small_quorum: int,
                 send_ready: Callable[[Any], None]) -> None:
        self.quorum = quorum
        self.small_quorum = small_quorum
        self.send_ready = send_ready
        self.echoes: dict[Any, set[int]] = defaultdict(set)
        self.readies: dict[Any, set[int]] = defaultdict(set)
        self.ready_sent = False
        self.deliverable: Any = NOTHING

    def echo(self, key: Any, sender: int) -> None:
        voters = self.echoes[key]
        voters.add(sender)
        if not self.ready_sent and len(voters) >= self.quorum:
            self.ready_sent = True
            self.send_ready(key)

    def ready(self, key: Any, sender: int) -> None:
        voters = self.readies[key]
        voters.add(sender)
        if self.deliverable is not NOTHING:
            return
        if not self.ready_sent and len(voters) >= self.small_quorum:
            self.ready_sent = True
            self.send_ready(key)
        if self.deliverable is NOTHING and len(voters) >= self.quorum:
            self.deliverable = key


class ReferenceRoundBasedAba(Component):
    """:class:`repro.components.aba_base.RoundBasedAba` with a set of
    DECIDED senders per value."""

    round_state: type

    def __init__(self, ctx, instance: int, tag: Any = None, on_output=None,
                 max_rounds: int = 64) -> None:
        super().__init__(ctx, instance, tag, on_output)
        self.max_rounds = max_rounds
        self.estimate: Optional[int] = None
        self.round = 0
        self.decided_value: Optional[int] = None
        self.rounds_executed = 0
        self._rounds: dict[int, Any] = defaultdict(self.round_state)
        self._decided_notices: dict[int, set[int]] = {}
        self._decided_sent = False
        self._started = False
        self._halted = False

    def start(self, value: int) -> None:
        if self._started:
            return
        if value not in (0, 1):
            raise ValueError(f"ABA input must be 0 or 1, got {value!r}")
        self._started = True
        self.estimate = value
        self._enter_round(self.round)

    def _next_round(self, round_number: int) -> None:
        if self._halted:
            return
        next_round = round_number + 1
        if next_round >= self.max_rounds:
            self._decide(self.estimate if self.estimate in (0, 1) else 0)
            self._halted = True
            return
        self.round = next_round
        self._enter_round(next_round)

    def _decide(self, value: int) -> None:
        if self.decided_value is None:
            self.decided_value = value
        if not self._decided_sent:
            self._decided_sent = True
            self._decided_notices.setdefault(value, set()).add(self.ctx.node_id)
            self.send("decided", {"value": value}, payload_bytes=1)
        self.complete(value)
        self._maybe_halt()

    def _on_decided(self, message) -> None:
        value = message.payload.get("value")
        if value not in (0, 1):
            return
        self._decided_notices.setdefault(value, set()).add(message.sender)
        if (len(self._decided_notices[value]) >= self.ctx.small_quorum
                and not self.completed):
            self.estimate = value
            self._decide(value)
        self._maybe_halt()

    def _maybe_halt(self) -> None:
        if self.decided_value is None:
            return
        notices = len(self._decided_notices.get(self.decided_value, set()))
        if notices >= self.ctx.quorum:
            self._halted = True


@dataclasses.dataclass
class _ReferenceCachinRound:
    bval_sent: set[int] = dataclasses.field(default_factory=set)
    bval_received: dict[int, set[int]] = dataclasses.field(
        default_factory=lambda: defaultdict(set))
    bin_values: set[int] = dataclasses.field(default_factory=set)
    aux_sent: bool = False
    aux_received: dict[int, int] = dataclasses.field(default_factory=dict)
    support_count: int = 0
    coin_requested: bool = False
    coin_value: Optional[int] = None
    finished: bool = False


class ReferenceCachinAba(ReferenceRoundBasedAba):
    """:class:`repro.components.aba_cachin.CachinAba` with a set of voter
    ids per BVAL value and a dict of AUX values by sender."""

    kind = "aba_sc"
    round_state = _ReferenceCachinRound

    def __init__(self, ctx, instance: int, coin, tag: Any = None,
                 on_output=None, max_rounds: int = 64) -> None:
        super().__init__(ctx, instance, tag, on_output, max_rounds)
        self.coin = coin

    def handle(self, message) -> None:
        if message.phase == "bval":
            self._on_bval(message)
        elif message.phase == "aux":
            self._on_aux(message)
        elif message.phase == "decided":
            self._on_decided(message)

    def _broadcast_bval(self, round_number: int, value: int) -> None:
        state = self._rounds[round_number]
        if value in state.bval_sent:
            return
        state.bval_sent.add(value)
        received = state.bval_received[value]
        newly_counted = self.ctx.node_id not in received
        received.add(self.ctx.node_id)
        self.send("bval", {"value": value}, round_number=round_number,
                  payload_bytes=1, slot=value)
        if newly_counted:
            self._after_bval_counted(round_number, state, value)

    def _on_bval(self, message) -> None:
        value = message.payload.get("value")
        if value not in (0, 1):
            return
        round_number = message.round
        state = self._rounds[round_number]
        received = state.bval_received[value]
        if message.sender in received:
            return
        received.add(message.sender)
        self._after_bval_counted(round_number, state, value)

    def _after_bval_counted(self, round_number: int, state, value: int) -> None:
        count = len(state.bval_received[value])
        if count >= self.ctx.small_quorum and value not in state.bval_sent:
            self._broadcast_bval(round_number, value)
        if count >= self.ctx.quorum and value not in state.bin_values:
            state.bin_values.add(value)
            state.support_count += sum(
                1 for aux_value in state.aux_received.values()
                if aux_value == value)
            self._maybe_send_aux(round_number, state)
        self._maybe_reveal_coin(round_number, state)

    def _maybe_send_aux(self, round_number: int, state) -> None:
        if state.aux_sent or not state.bin_values:
            return
        state.aux_sent = True
        value = next(iter(sorted(state.bin_values)))
        self._record_aux(state, self.ctx.node_id, value)
        self.send("aux", {"value": value}, round_number=round_number,
                  payload_bytes=1)
        self._maybe_reveal_coin(round_number, state)

    def _on_aux(self, message) -> None:
        value = message.payload.get("value")
        if value not in (0, 1):
            return
        round_number = message.round
        state = self._rounds[round_number]
        if message.sender in state.aux_received:
            return
        self._record_aux(state, message.sender, value)
        self._maybe_reveal_coin(round_number, state)

    @staticmethod
    def _record_aux(state, sender: int, value: int) -> None:
        if sender in state.aux_received:
            return
        state.aux_received[sender] = value
        if value in state.bin_values:
            state.support_count += 1

    def _maybe_reveal_coin(self, round_number: int, state) -> None:
        if self._halted or round_number != self.round or state.finished:
            return
        if state.coin_requested:
            return
        if state.support_count < self.ctx.num_nodes - self.ctx.faults:
            return
        state.coin_requested = True
        self.coin.request(round_number,
                          lambda _rid, coin: self._on_coin(round_number, coin))

    def _on_coin(self, round_number: int, coin_value: int) -> None:
        state = self._rounds[round_number]
        state.coin_value = coin_value
        self._finish_round(round_number, state)

    def _finish_round(self, round_number: int, state) -> None:
        if state.finished or round_number != self.round or self._halted:
            return
        if (state.support_count < self.ctx.num_nodes - self.ctx.faults
                or state.coin_value is None):
            return
        state.finished = True
        self.rounds_executed += 1
        coin = state.coin_value
        values = {value for value in state.aux_received.values()
                  if value in state.bin_values}
        if len(values) == 1:
            value = next(iter(values))
            self.estimate = value
            if value == coin:
                self._decide(value)
        else:
            self.estimate = coin if self.decided_value is None else self.decided_value
        self._next_round(round_number)

    def _enter_round(self, round_number: int) -> None:
        self._broadcast_bval(round_number, self.estimate)
        state = self._rounds[round_number]
        self._maybe_send_aux(round_number, state)
        self._maybe_reveal_coin(round_number, state)


@dataclasses.dataclass
class _ReferenceBrachaRound:
    started_phases: set[int] = dataclasses.field(default_factory=set)
    completed_phases: set[int] = dataclasses.field(default_factory=set)
    mini: dict = dataclasses.field(default_factory=dict)
    echoed: set[tuple[int, int]] = dataclasses.field(default_factory=set)
    my_votes: dict[int, Any] = dataclasses.field(default_factory=dict)


class ReferenceBrachaAba(ReferenceRoundBasedAba):
    """:class:`repro.components.aba_bracha.BrachaAba` with sets of phases
    and of echoed ``(phase, voter)`` pairs, and set-based mini-RBCs."""

    kind = "aba_lc"
    round_state = _ReferenceBrachaRound

    def handle(self, message) -> None:
        if message.phase == "decided":
            self._on_decided(message)
            return
        parts = message.phase.split("_", 1)
        if len(parts) != 2 or not parts[0].startswith("p"):
            return
        try:
            phase = int(parts[0][1:])
        except ValueError:
            return
        kind = parts[1]
        round_number = message.round
        state = self._rounds[round_number]
        if kind == "initial":
            voter = message.sender
            self._mini(state, round_number, phase, voter)
            if (phase, voter) not in state.echoed:
                state.echoed.add((phase, voter))
                self.send(f"p{phase}_echo",
                          {"voter": voter, "value": message.payload.get("value")},
                          round_number=round_number, slot=voter)
        elif kind == "echo" or kind == "ready":
            voter = message.payload.get("voter")
            if voter is None:
                return
            votes = self._mini(state, round_number, phase, voter)
            if kind == "echo":
                votes.echo(message.payload.get("value"), message.sender)
            else:
                votes.ready(message.payload.get("value"), message.sender)
        else:
            return
        self._check_phase_completion(state, round_number, phase)

    def _mini(self, state, round_number: int, phase: int, voter):
        votes = state.mini.get((phase, voter))
        if votes is None:
            votes = state.mini[phase, voter] = ReferenceBrachaVotes(
                self.ctx.quorum, self.ctx.small_quorum,
                partial(self._send_vote_ready, round_number, phase, voter))
        return votes

    def _send_vote_ready(self, round_number: int, phase: int, voter,
                         value: Any) -> None:
        self.send(f"p{phase}_ready", {"voter": voter, "value": value},
                  round_number=round_number, slot=voter)

    def _start_phase(self, round_number: int, phase: int) -> None:
        state = self._rounds[round_number]
        if phase in state.started_phases:
            return
        state.started_phases.add(phase)
        vote = state.my_votes.setdefault(phase, self.estimate)
        self.send(f"p{phase}_initial", {"value": vote},
                  round_number=round_number, payload_bytes=1)

    def _check_phase_completion(self, state, round_number: int,
                                phase: int) -> None:
        if self._halted or round_number != self.round:
            return
        if phase not in state.started_phases or phase in state.completed_phases:
            return
        accepted = {voter: votes.deliverable
                    for (mini_phase, voter), votes in state.mini.items()
                    if mini_phase == phase and votes.deliverable is not NOTHING}
        if len(accepted) < self.ctx.num_nodes - self.ctx.faults:
            return
        state.completed_phases.add(phase)
        counts: dict[Any, int] = {}
        for value in accepted.values():
            counts[value] = counts.get(value, 0) + 1
        if phase == 1:
            state.my_votes[2] = max(counts, key=counts.get)
            self._start_phase(round_number, 2)
        elif phase == 2:
            threshold = (self.ctx.num_nodes + self.ctx.faults) / 2.0
            determined = [value for value, count in counts.items()
                          if count > threshold and value != UNDETERMINED]
            state.my_votes[3] = determined[0] if determined else UNDETERMINED
            self._start_phase(round_number, 3)
        else:
            self._finish_round(round_number, counts)

    def _finish_round(self, round_number: int, counts: dict[Any, int]) -> None:
        self.rounds_executed += 1
        best_value, best_count = None, 0
        for value, count in counts.items():
            if value != UNDETERMINED and value is not None \
                    and count > best_count:
                best_value, best_count = value, count
        if best_count >= self.ctx.quorum:
            self.estimate = best_value
            self._decide(best_value)
        elif self.decided_value is not None:
            self.estimate = self.decided_value
        elif best_count >= self.ctx.small_quorum:
            self.estimate = best_value
        else:
            self.estimate = self.ctx.rng.randrange(2)
        self._next_round(round_number)

    def _enter_round(self, round_number: int) -> None:
        self._start_phase(round_number, 1)
        state = self._rounds[round_number]
        for phase in (1, 2, 3):
            self._check_phase_completion(state, round_number, phase)
