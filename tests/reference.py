"""The seed implementations the fast paths are pinned against, and the
test-only helpers they need.

Uncached and naive on purpose: the bit-identity property tests compare the
library's tables, memos and Jacobi tests with these, and
``benchmarks/bench_hotpath_micro.py`` times them as the "before" rows.
Nothing in ``src/`` calls them.  Builtin ``pow`` throughout, never
``Group.exp``: a reference must not run through the known-log memo it is
compared against.  :class:`ReferenceSimulator` is the event kernel as
it was before an event became its heap entry.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random
from typing import Callable, Optional, Sequence

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
    points = _share_points(field, xs)
    coefficients = []
    for i, x_i in enumerate(points):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(points):
            if i == j:
                continue
            numerator = field.mul(numerator, field.neg(x_j))
            denominator = field.mul(denominator, field.sub(x_i, x_j))
        coefficients.append(field.div(numerator, denominator))
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
