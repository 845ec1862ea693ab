"""Transaction workload generation: per-epoch batches and open-loop arrivals.

The paper's evaluation measures throughput in transactions per minute (TPM),
with every node contributing a batch of transactions per epoch.  The
generator produces deterministic, seeded batches of configurable size, plus
two domain-flavoured workloads matching the motivating wireless applications
(dynamic task allocation for a robot swarm and telemetry/map-fragment
exchange), which the example programs use.

For sustained-load (streaming) runs the module adds the shape of an
**open-loop arrival process** (:class:`ArrivalSpec`, driven by
:class:`~repro.testbed.ingress.ClassedArrivals`) and the bytes of its
transactions (:meth:`TransactionWorkload.stream_transaction`): clients
submit transactions at seeded Poisson-like arrival times *regardless of how
fast consensus drains them*, which is what exposes saturation -- the offered
load beyond which the backlog grows without bound.

Seeded-RNG stream discipline
----------------------------

Every random quantity here derives from a caller-provided integer ``seed``
through CRCs of canonical reprs (never Python's per-process-salted ``hash``),
and each node's arrival stream draws from its **own** child RNG:

* arrival *times* (drawn by ``ClassedArrivals`` from a per-node child RNG)
  and transaction *bytes* of node ``i`` are a pure function of ``(seed, i,
  arrival index)`` -- independent of every other node, of the simulation's
  pace, and of how often (or lazily) the stream is read;
* nothing here ever touches the simulator's RNG, so a fault-free streaming
  run consumes exactly the same substrate RNG stream as the equivalent
  sequence of single-epoch runs -- fault-free streams stay bit-identical to
  their seed (guarded by ``tests/testbed/test_streaming.py``).
"""

from __future__ import annotations

import hashlib
import random
import zlib
from dataclasses import dataclass
from itertools import compress


# Per byte of a 32-bit word, as tables for ``bytes.translate``: a 9-bit
# draw is the word's top nine bits, ``word >> 23``.
#: the high byte's low seven bits, as the draw's top seven
_DRAW_HIGH = bytes((byte << 1) & 0xFF for byte in range(256))
#: the third byte's top bit, as the draw's lowest
_DRAW_LOW = bytes(byte >> 7 for byte in range(256))
#: whether the draw is below 256 (the high byte's top bit is clear)
_DRAW_KEPT = bytes(byte < 128 for byte in range(256))
#: missing bytes below which a bulk round costs more than drawing one word
#: at a time (~3 us a round against ~0.3 us a byte)
_BULK_MIN = 32


def random_bytes(rng: random.Random, count: int) -> bytes:
    """``bytes(rng.randrange(256) for _ in range(count))``, bit for bit.

    ``randrange(256)`` draws ``getrandbits(9)`` -- the top nine bits of one
    32-bit word -- until the draw is below 256.  A word yields at most one
    byte, so while ``k >= _BULK_MIN`` bytes are missing they are drawn as
    one ``getrandbits(32 * k)`` (the same ``k`` words, lowest first), the
    draws below 256 kept, a few C-level passes per round instead of three
    Python calls per byte (a 4-packet proposal is ~6,000 bytes); the last
    few bytes are drawn one word at a time, which is cheaper than a round.
    The same words either way, hence the same bytes and the same ``rng``
    state.  Pinned against the expression above in
    ``tests/testbed/test_workload_properties.py``.
    """
    getrandbits = rng.getrandbits
    out = bytearray()
    while count - len(out) >= _BULK_MIN:
        missing = count - len(out)
        words = getrandbits(32 * missing).to_bytes(4 * missing, "little")
        high = words[3::4]
        draws = (int.from_bytes(high.translate(_DRAW_HIGH), "little")
                 | int.from_bytes(words[2::4].translate(_DRAW_LOW), "little")
                 ).to_bytes(missing, "little")
        out += bytes(compress(draws, high.translate(_DRAW_KEPT)))
    while len(out) < count:
        draw = getrandbits(9)
        if draw < 256:
            out.append(draw)
    return bytes(out)


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of the per-node transaction batches."""

    batch_size: int = 8
    transaction_bytes: int = 64
    flavor: str = "uniform"  # uniform | task-allocation | telemetry

    def __post_init__(self) -> None:
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {self.batch_size}")
        if self.transaction_bytes < 8:
            raise ValueError(
                f"transaction_bytes must be >= 8, got {self.transaction_bytes}")
        if self.flavor not in ("uniform", "task-allocation", "telemetry"):
            raise ValueError(f"unknown workload flavor {self.flavor!r}")


class TransactionWorkload:
    """Deterministic per-node transaction batches."""

    def __init__(self, spec: WorkloadSpec | None = None, seed: int = 0) -> None:
        self.spec = spec or WorkloadSpec()
        self.seed = seed

    def batch_for(self, node_id: int, epoch: int | str = 0) -> list[bytes]:
        """The batch node ``node_id`` proposes in ``epoch``.

        ``epoch`` is usually the integer epoch number; a string label derives
        a disjoint deterministic batch for the same node (the testbed uses
        ``"equiv"`` for the conflicting batch of an equivocating proposer).
        """
        rng = random.Random(zlib.crc32(repr((self.seed, node_id, epoch)).encode()))
        batch = []
        for index in range(self.spec.batch_size):
            batch.append(self._transaction(rng, node_id, epoch, index))
        return batch

    # ---------------------------------------------------------------- flavors
    def _transaction(self, rng: random.Random, node_id: int, epoch: int | str,
                     index: int) -> bytes:
        if self.spec.flavor == "task-allocation":
            body = (f"task|robot={node_id}|epoch={epoch}|task_id={index}|"
                    f"x={rng.uniform(0, 100):.2f}|y={rng.uniform(0, 100):.2f}|"
                    f"priority={rng.randint(0, 3)}").encode()
        elif self.spec.flavor == "telemetry":
            body = (f"telemetry|node={node_id}|epoch={epoch}|seq={index}|"
                    f"rssi={rng.randint(-120, -30)}|"
                    f"battery={rng.uniform(0, 100):.1f}|"
                    f"cell={rng.randint(0, 4095)}").encode()
        else:
            body = (f"tx|{node_id}|{epoch}|{index}|"
                    + hashlib.sha256(
                        f"{self.seed}|{node_id}|{epoch}|{index}".encode()).hexdigest()
                    ).encode()
        return self._pad(body, rng)

    def stream_transaction(self, node_id: int, index: int) -> bytes:
        """Transaction ``index`` of node ``node_id``'s open-loop arrival stream.

        Same flavor machinery and ``|#``-terminated padding as the per-epoch
        batches, but tagged with the stream epoch label ``("stream", index)``
        so stream transactions can never collide with any epoch batch of the
        same seed.  Pure function of ``(self.seed, node_id, index)``:
        re-reading the stream, in any order, yields identical bytes.
        """
        epoch = ("stream", index)
        rng = random.Random(
            zlib.crc32(repr((self.seed, node_id, epoch)).encode()))
        return self._transaction(rng, node_id, epoch, 0)

    def _pad(self, body: bytes, rng: random.Random) -> bytes:
        target = self.spec.transaction_bytes
        if len(body) >= target:
            return body[:target]
        # A "|#" terminator separates the structured fields from the random
        # padding so consumers can parse fields without tripping over filler.
        body = body + b"|#"
        if len(body) >= target:
            return body[:target]
        return body + random_bytes(rng, target - len(body))


# ---------------------------------------------------------------------------
# open-loop arrivals (streaming runs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrivalSpec:
    """Shape of an open-loop transaction arrival process.

    Units: ``rate_tps`` is offered load in **transactions per second of
    virtual time**, summed over the whole network (each of the ``n`` nodes
    receives a Poisson-like stream of rate ``rate_tps / n``);
    ``transaction_bytes`` is the size of one transaction in **bytes**
    (>= 8, as in :class:`WorkloadSpec`); ``max_mempool`` bounds each node's
    backlog in **transactions** -- arrivals beyond it are dropped and
    counted, which is what keeps streaming memory O(backlog) under
    overload.
    """

    rate_tps: float = 1.0
    transaction_bytes: int = 48
    flavor: str = "uniform"  # uniform | task-allocation | telemetry
    max_mempool: int = 4096

    def __post_init__(self) -> None:
        if self.rate_tps <= 0:
            raise ValueError(f"rate_tps must be > 0, got {self.rate_tps}")
        if self.transaction_bytes < 8:
            raise ValueError(
                f"transaction_bytes must be >= 8, got {self.transaction_bytes}")
        if self.max_mempool < 1:
            raise ValueError(
                f"max_mempool must be >= 1, got {self.max_mempool}")
        if self.flavor not in ("uniform", "task-allocation", "telemetry"):
            raise ValueError(f"unknown workload flavor {self.flavor!r}")


# ---------------------------------------------------------------------------
# churn arrival process (dynamic membership)
# ---------------------------------------------------------------------------

#: the smallest viable BFT committee (3f + 1 with f = 1)
QUORUM_FLOOR = 4


@dataclass(frozen=True)
class ChurnSpec:
    """Shape of a node churn process over one streaming run.

    The spec is declarative: :class:`ChurnProcess` (and through it
    ``repro.testbed.membership.MembershipSchedule.from_churn``) expands it
    into a deterministic event list on the virtual-time axis.  Units:
    ``join_rate`` / ``leave_rate`` are events per **virtual second** over
    ``horizon_s`` seconds; ``crash_times`` are absolute virtual-time seconds
    at which one active node permanently crashes.

    ``initial_size`` selects how many of the deployment's nodes form the
    epoch-0 committee (0 = all of them); the rest start on standby and are
    the join pool.  Every crash is paired with a standby join at the same
    instant while the pool lasts, modelling operator-driven replacement.
    Leaves and crashes that would sink the committee below
    :data:`QUORUM_FLOOR` are dropped at expansion time.
    """

    initial_size: int = 0
    join_rate: float = 0.0
    leave_rate: float = 0.0
    crash_times: tuple = ()
    horizon_s: float = 120.0

    def __post_init__(self) -> None:
        if self.initial_size < 0:
            raise ValueError(
                f"initial_size must be >= 0 (0 = whole deployment), "
                f"got {self.initial_size}")
        if self.initial_size and self.initial_size < QUORUM_FLOOR:
            raise ValueError(
                f"initial_size must be >= {QUORUM_FLOOR} (the smallest 3f+1 "
                f"committee), got {self.initial_size}")
        if self.join_rate < 0:
            raise ValueError(f"join_rate must be >= 0, got {self.join_rate}")
        if self.leave_rate < 0:
            raise ValueError(f"leave_rate must be >= 0, got {self.leave_rate}")
        if self.horizon_s < 0:
            raise ValueError(
                f"horizon_s must be >= 0, got {self.horizon_s}")
        for at_s in self.crash_times:
            if not at_s > 0:
                raise ValueError(
                    f"crash_times must all be > 0 (virtual seconds), "
                    f"got {at_s}")


class ChurnProcess:
    """Expand a :class:`ChurnSpec` into deterministic churn events.

    Every random quantity draws from its own child RNG stream (join times,
    leave times, victim picks), never the simulator RNG, so adding churn to
    a run can never shift any other seeded stream -- and a spec with no
    events leaves a fault-free stream bit-identical to its seed.

    ``events`` is a list of ``(at_s, action, node_id)`` tuples sorted by
    time (``action`` in ``join`` / ``leave`` / ``crash``), a pure function
    of ``(spec, num_nodes, seed)``.  Expansion replays the committee as it
    goes: leaves/crashes that would sink below :data:`QUORUM_FLOOR`
    (counting a paired replacement join) are dropped, joins with an empty
    standby pool are dropped, so the emitted sequence is always structurally
    valid.
    """

    def __init__(self, spec: ChurnSpec, num_nodes: int, seed: int = 0) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        initial_size = spec.initial_size or num_nodes
        if initial_size > num_nodes:
            raise ValueError(
                f"initial_size {initial_size} exceeds the deployment's "
                f"{num_nodes} nodes")
        self.spec = spec
        self.num_nodes = num_nodes
        self.seed = seed
        self.initial = tuple(range(initial_size))
        self.events = self._expand()

    def _event_times(self, stream: str, rate: float) -> list[float]:
        if rate <= 0 or self.spec.horizon_s <= 0:
            return []
        rng = random.Random(zlib.crc32(
            repr((self.seed, "churn", stream)).encode()))
        times, clock = [], 0.0
        while True:
            clock += rng.expovariate(rate)
            if clock >= self.spec.horizon_s:
                return times
            times.append(clock)

    def _expand(self) -> list[tuple]:
        spec = self.spec
        candidates = (
            [(at_s, "join") for at_s in self._event_times("join",
                                                          spec.join_rate)]
            + [(at_s, "leave") for at_s in self._event_times("leave",
                                                             spec.leave_rate)]
            + [(at_s, "crash") for at_s in spec.crash_times])
        # Sort by time; ties break crash < join < leave so a crash's paired
        # replacement join lands right next to it.
        order = {"crash": 0, "join": 1, "leave": 2}
        candidates.sort(key=lambda item: (item[0], order[item[1]]))
        pick = random.Random(zlib.crc32(
            repr((self.seed, "churn", "pick")).encode()))
        active = set(self.initial)
        standby = [node_id for node_id in range(self.num_nodes)
                   if node_id not in active]
        events: list[tuple] = []
        for at_s, action in candidates:
            if action == "join":
                if not standby:
                    continue
                node_id = standby.pop(0)
                active.add(node_id)
                events.append((at_s, "join", node_id))
            else:
                replaced = action == "crash" and bool(standby)
                if len(active) - 1 + (1 if replaced else 0) < QUORUM_FLOOR:
                    continue
                victim = sorted(active)[pick.randrange(len(active))]
                active.discard(victim)
                events.append((at_s, action, victim))
                if replaced:
                    node_id = standby.pop(0)
                    active.add(node_id)
                    events.append((at_s, "join", node_id))
                # A departed node may later rejoin: gracefully-left nodes
                # return to the back of the standby pool, crashed nodes are
                # gone for good.
                if action == "leave":
                    standby.append(victim)
        return events
