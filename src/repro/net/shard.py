"""Conservative (CMB-style) synchronization for sharded simulations.

The multi-hop topology gives natural shard boundaries: intra-cluster traffic
never leaves its cluster channel, and the only cross-cluster coupling is the
leaders' backbone channel.  This module runs one event loop per shard (a
group of clusters) and synchronizes them with the classic conservative
discipline:

* every shard executes one **barrier window** ``(H_prev, H]`` at a time on
  its own :class:`~repro.net.sim.Simulator` (own heap, sequence counter and
  RNG stream);
* the horizon ``H`` is chosen so that no shard can *start* a backbone
  transmission strictly inside the window.  The lookahead comes from CSMA:
  any fresh channel access must pass through ``CsmaMac._start_backoff``,
  which defers by at least the DIFS period, so
  ``bound = min(next scheduled backbone attempt, next heap event + DIFS)``
  is a sound per-shard promise (a consequence: every backbone transmission
  starts *exactly on* a window horizon);
* backbone transmissions are exchanged at the barrier, serialized through
  this module's digest-preserving codec (:func:`encode_boundary_frame`)
  and replayed in every other shard as **ghost transmissions** on that
  shard's backbone mirror: they occupy the channel, collide symmetrically
  with local transmissions (the strict-overlap rule depends only on
  ``(start, end)`` pairs, which all shards agree on) and deliver to local
  leaders through the ordinary half-duplex / hop-delay / adversary
  pipeline -- drawing jitter from the *receiving* shard's RNG;
* cross-shard events are replayed in deterministic ``(time, shard, seq)``
  order, which makes a run a pure function of ``(scenario, seed, shards)``
  -- bit-identical for any number of worker processes, since worker
  placement changes neither the window sequence nor any shard-local
  execution.

Same-instant semantics at a horizon ``H`` are fixed by construction: a
transmission starting exactly at ``H`` is not carrier-sensed by *other*
shards' events at ``H`` (they run before the ghost is injected at the next
barrier), but it still collides with any overlapping transmission because
collision flags are (re)computed from ``(start, end)`` whenever a
transmission or ghost enters the channel while another is on the air.

Multi-worker execution forks one process per worker over ``multiprocessing``
pipes; shard state never migrates, only serialized emissions and horizon
announcements cross process boundaries.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.net.channel import Frame, Transmission, WirelessChannel
from repro.net.csma import CsmaMac
from repro.net.sim import SimulationError, Simulator


class ShardSyncError(RuntimeError):
    """Raised when the conservative synchronization invariants are violated."""


class BoundaryCodecError(ValueError):
    """Raised when a frame cannot cross a shard boundary."""


def encode_boundary_frame(frame: Frame) -> bytes:
    """Serialize a frame for transport across a shard boundary.

    Digest-preserving by construction: the payload (a signed
    :class:`repro.core.packet.Packet`) carries its cached ``digest`` as a
    plain field, so the receiving shard sees exactly the bytes, signature and
    digest the sender put on the air -- adversary and link-fault bookkeeping
    at the receiving shard operate on an indistinguishable frame.  Frames
    with a pending ``builder`` cannot cross (content is only materialised at
    channel-access time, which already happened for anything transmitted).
    """
    if frame.builder is not None:
        raise BoundaryCodecError(
            f"frame {frame.frame_id} from {frame.sender} still has a pending "
            f"builder; only materialised (transmitted) frames cross shards")
    try:
        return pickle.dumps(
            (frame.sender, frame.payload, frame.size_bytes, frame.channel,
             frame.frame_id),
            protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # pragma: no cover - payload must be picklable
        raise BoundaryCodecError(
            f"frame {frame.frame_id} payload is not serializable: {exc}") from exc


def decode_boundary_frame(data: bytes) -> Frame:
    """Reconstruct a frame serialized by :func:`encode_boundary_frame`."""
    sender, payload, size_bytes, channel, frame_id = pickle.loads(data)
    frame = Frame(sender=sender, payload=payload, size_bytes=size_bytes,
                  channel=channel)
    frame.frame_id = frame_id  # keep the home shard's id
    return frame


@dataclass(frozen=True)
class Emission:
    """One backbone transmission crossing a shard boundary.

    ``shard``/``seq`` identify the emission in its home shard's order; the
    coordinator sorts all emissions of a barrier by ``(start, shard, seq)``
    before replay, which is the deterministic cross-shard tie-break.
    ``data`` is the frame serialized by :func:`encode_boundary_frame`.
    """

    shard: int
    seq: int
    sender: int
    start: float
    end: float
    size_bytes: int
    data: bytes


@dataclass
class WindowResult:
    """What one shard reports back at a barrier."""

    bound: float
    emissions: list[Emission]
    done: bool
    processed: int


class GhostMac:
    """Stand-in sender MAC for a remote (ghost) transmission.

    Never attached to the channel: it only gives the replayed transmission a
    sender identity.  No MAC callback reaches it -- the mirror's ``_finish``
    handles a ghost itself, and the real MAC is notified in the home shard.
    """

    __slots__ = ("node_id",)

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id


class ShardBackboneChannel(WirelessChannel):
    """A shard's mirror of the global backbone channel.

    Local leaders transmit on it exactly as on the classic backbone; every
    transmission is additionally captured as an :class:`Emission` for the
    other shards.  Remote transmissions are injected as ghosts: they take
    part in carrier sensing and collisions and deliver to local leaders, but
    their trace ownership is split -- transmission/channel-access counters
    belong to the home shard, collision counters to the home shard, delivery
    (and drop/half-duplex) counters to the shard hosting the receiver -- so
    summing per-shard traces reproduces the single-channel totals.
    """

    def __init__(self, *args: Any, shard_index: int = 0, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.shard_index = shard_index
        self._emission_seq = 0
        self._outbound: list[Emission] = []

    # ------------------------------------------------------------- local side
    def transmit(self, sender_mac: Any, frame: Frame) -> Transmission:
        transmission = super().transmit(sender_mac, frame)
        # Serialize immediately: the frame is materialised (builder already
        # ran) and must cross the boundary exactly as it went on the air.
        self._outbound.append(Emission(
            shard=self.shard_index, seq=self._emission_seq,
            sender=frame.sender, start=transmission.start,
            end=transmission.end, size_bytes=frame.size_bytes,
            data=encode_boundary_frame(frame)))
        self._emission_seq += 1
        return transmission

    def drain_outbound(self) -> list[Emission]:
        """Emissions captured since the last barrier (cleared on read)."""
        outbound, self._outbound = self._outbound, []
        return outbound

    # ------------------------------------------------------------ remote side
    def inject_remote(self, emission: Emission) -> Transmission:
        """Replay a remote transmission as a ghost starting now."""
        if emission.start != self.sim.now:
            raise ShardSyncError(
                f"ghost from shard {emission.shard} starts at "
                f"{emission.start} but the local clock is {self.sim.now}; "
                f"the horizon protocol must inject ghosts at their start time")
        frame = decode_boundary_frame(emission.data)
        ghost = Transmission(frame=frame, sender_mac=GhostMac(frame.sender),
                             start=emission.start, end=emission.end,
                             seq=frame.frame_id)
        # Symmetric collision computation: strict overlap on (start, end).
        for other in self._active:
            if other.end > ghost.start:
                other.collided = True
                ghost.collided = True
        self._active.append(ghost)
        self._busy_until = max(self._busy_until, ghost.end)
        self.sim.schedule_at(emission.end, partial(self._finish, ghost))
        return ghost

    def _finish(self, transmission: Transmission) -> None:
        if isinstance(transmission.sender_mac, GhostMac):
            self._active.remove(transmission)
            # The home shard records the collision and notifies the real
            # sender MAC; the ghost only delivers (or stays silent).
            if not transmission.collided:
                self._deliver(transmission)
            return
        super()._finish(transmission)


#: deterministic per-node backoff perturbation (seconds).  Two MACs in
#: different shards cannot carrier-sense each other at the *same instant*
#: (a ghost only arrives at the next barrier), so an exact slot tie would
#: always collide where the classic global heap lets the second sender
#: defer.  A node-unique picosecond offset makes exact ties impossible:
#: the later attempt now falls strictly inside the earlier transmission's
#: airtime and defers through the ordinary busy-sense path, restoring
#: classic carrier-sense semantics.  Keyed to the node id only, so it is
#: independent of the shard layout and worker count.
SLOT_TIE_BREAK_S = 1e-12


class ShardCsmaMac(CsmaMac):
    """A backbone CSMA MAC that exposes its next scheduled channel attempt.

    The attempt time is the exact instant this MAC could next call
    ``channel.transmit``; together with the ``next heap event + DIFS`` term
    it yields the shard's conservative bound.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.next_attempt_at: Optional[float] = None

    def _start_backoff(self) -> None:
        # Mirrors CsmaMac._start_backoff, additionally recording the attempt
        # time (the base class computes the delay internally, so this is the
        # one place the value is known before scheduling) and applying the
        # cross-shard slot tie-break.
        if not self._queue:
            self._state = "idle"
            return
        self._state = "backoff"
        self._backoff_started = self.sim.now
        slots = self.rng.randrange(self._contention_window)
        wait = max(0.0, self.channel.busy_until - self.sim.now)
        delay = wait + self.config.difs_s + slots * self.config.slot_s \
            + self.node_id * SLOT_TIE_BREAK_S
        self.next_attempt_at = self.sim.now + delay
        self.sim.schedule(delay, self._attempt)

    def _attempt(self) -> None:
        self.next_attempt_at = None
        super()._attempt()


# ---------------------------------------------------------------------------
# per-shard runner
# ---------------------------------------------------------------------------

class ShardRunner:
    """One shard's window protocol: inject ghosts, run, report.

    The runner is deliberately harness-agnostic: ``poll`` runs after every
    processed event (the multi-hop harness couples local decisions into the
    global domain there) and ``done`` reports the shard-local stop condition
    at barriers.  Subclasses add a ``finish()`` producing the final
    (picklable) shard report.
    """

    def __init__(self, shard_index: int, sim: Simulator,
                 backbone: Optional[ShardBackboneChannel],
                 backbone_macs: Sequence[ShardCsmaMac],
                 difs_s: float,
                 poll: Optional[Callable[[], None]] = None,
                 done: Optional[Callable[[], bool]] = None) -> None:
        if difs_s <= 0:
            raise ShardSyncError(
                f"conservative lookahead needs a positive DIFS, got {difs_s}; "
                f"with difs_s == 0 a fresh channel access has no minimum "
                f"deferral and every window degenerates to a single event")
        self.shard_index = shard_index
        self.sim = sim
        self.backbone = backbone
        self.backbone_macs = list(backbone_macs)
        self.difs_s = difs_s
        self.poll = poll
        self.done = done or (lambda: False)

    def inject(self, ghosts: Sequence[Emission]) -> None:
        """Schedule the barrier's remote transmissions at their start times."""
        backbone = self.backbone
        if ghosts and backbone is None:
            raise ShardSyncError(
                f"shard {self.shard_index} received ghosts but has no "
                f"backbone mirror")
        for emission in ghosts:
            self.sim.schedule_at(emission.start,
                                 partial(backbone.inject_remote, emission))

    def bound(self) -> float:
        """Earliest instant this shard could start a backbone transmission."""
        candidates = [mac.next_attempt_at for mac in self.backbone_macs
                      if mac.next_attempt_at is not None]
        next_event = self.sim.next_event_time()
        if next_event is not None:
            # Any fresh access chain starts at some queued event and then
            # defers by at least DIFS in _start_backoff.
            candidates.append(next_event + self.difs_s)
        return min(candidates) if candidates else math.inf

    def collect(self, processed: int) -> WindowResult:
        emissions = self.backbone.drain_outbound() if self.backbone else []
        return WindowResult(bound=self.bound(), emissions=emissions,
                            done=bool(self.done()), processed=processed)

    def step(self, until: float, ghosts: Sequence[Emission]) -> WindowResult:
        """Inject + run + collect: one window of this shard."""
        self.inject(ghosts)
        processed = self.sim.run_window(until, poll=self.poll)
        return self.collect(processed)

    def finish(self) -> Any:  # pragma: no cover - subclasses report
        return None


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lookahead:
    """The two scenario constants the horizon computation needs."""

    difs_s: float
    rx_turnaround_s: float


def next_horizon(bounds: Sequence[float], fresh: Sequence[Emission],
                 lookahead: Lookahead, timeout_s: float) -> float:
    """The next safe horizon given every shard's bound and the barrier's
    freshly exchanged emissions.

    A fresh emission is not yet in any receiving shard's heap, so its
    earliest receiver-side consequence -- a delivery no sooner than
    ``end + rx_turnaround`` followed by at least a DIFS deferral -- caps the
    horizon for exactly one round (after that the ghost's events are queued
    and covered by the shard bounds).
    """
    candidates = list(bounds)
    for emission in fresh:
        candidates.append(emission.end + lookahead.rx_turnaround_s
                          + lookahead.difs_s)
    horizon = min(candidates) if candidates else math.inf
    return min(horizon, timeout_s)


def _sorted_emissions(results: Sequence[WindowResult]) -> list[Emission]:
    merged = [emission for result in results for emission in result.emissions]
    merged.sort(key=lambda e: (e.start, e.shard, e.seq))
    return merged


def _route(emissions: Sequence[Emission], shard: int) -> list[Emission]:
    return [emission for emission in emissions if emission.shard != shard]


@dataclass
class _InProcessPool:
    """Drives every shard in this process (``workers <= 1``).

    Emissions still round-trip through the boundary codec (encode at
    transmit, decode at injection), so a one-worker run is bit-identical to
    any multi-worker run by construction, not by luck.
    """

    runners: list[ShardRunner]

    def step(self, until: float,
             ghosts: dict[int, list[Emission]]) -> list[WindowResult]:
        # what a forked worker does with its block of shards, here with all
        return [runner.step(until, ghosts.get(runner.shard_index, ()))
                for runner in self.runners]

    def finish(self) -> list[Any]:
        return [runner.finish() for runner in self.runners]

    def close(self) -> None:
        return None


def _worker_main(conn: Any, factory: Callable[[int], ShardRunner],
                 shard_indices: Sequence[int]) -> None:
    """Entry point of one worker process: build shards, serve barriers."""
    try:
        runners = [factory(index) for index in shard_indices]
        conn.send(("ready", None))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "step":
                _kind, until, ghosts = message
                results = [runner.step(until, ghosts.get(runner.shard_index, ()))
                           for runner in runners]
                conn.send(("ok", results))
            elif kind == "finish":
                conn.send(("ok", [runner.finish() for runner in runners]))
            else:
                break
    except BaseException as exc:  # surface the full failure in the parent
        import traceback
        try:
            conn.send(("error", f"{exc}\n{traceback.format_exc()}"))
        except Exception:
            pass
    finally:
        conn.close()


class _ForkedPool:
    """Drives shards across forked worker processes over pipes."""

    def __init__(self, factory: Callable[[int], ShardRunner],
                 num_shards: int, workers: int) -> None:
        context = multiprocessing.get_context("fork")
        # Contiguous blocks keep neighbouring clusters on one worker.
        base, extra = divmod(num_shards, workers)
        assignments, cursor = [], 0
        for w in range(workers):
            size = base + (1 if w < extra else 0)
            assignments.append(list(range(cursor, cursor + size)))
            cursor += size
        self._pipes = []
        self._processes = []
        self.assignments = assignments
        for indices in assignments:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main, args=(child_conn, factory, indices),
                daemon=True)
            process.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._processes.append(process)
        for conn in self._pipes:
            self._expect(conn, "ready")

    @staticmethod
    def _expect(conn: Any, kind: str) -> Any:
        status, payload = conn.recv()
        if status == "error":
            raise ShardSyncError(f"shard worker failed:\n{payload}")
        if kind == "ready":
            return payload
        return payload

    def _collect(self) -> list[list[Any]]:
        replies = []
        for conn in self._pipes:
            status, payload = conn.recv()
            if status == "error":
                raise ShardSyncError(f"shard worker failed:\n{payload}")
            replies.append(payload)
        return replies

    def _ordered(self, replies: Sequence[Sequence[Any]]) -> list[Any]:
        by_shard: dict[int, Any] = {}
        for indices, reply in zip(self.assignments, replies):
            for index, item in zip(indices, reply):
                by_shard[index] = item
        return [by_shard[index] for index in sorted(by_shard)]

    def step(self, until: float,
             ghosts: dict[int, list[Emission]]) -> list[WindowResult]:
        for conn, indices in zip(self._pipes, self.assignments):
            conn.send(("step", until,
                       {index: ghosts.get(index, []) for index in indices}))
        return self._ordered(self._collect())

    def finish(self) -> list[Any]:
        for conn in self._pipes:
            conn.send(("finish",))
        return self._ordered(self._collect())

    def close(self) -> None:
        for conn in self._pipes:
            try:
                conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()


def fork_available() -> bool:
    """True when the platform supports fork-based shard workers."""
    return "fork" in multiprocessing.get_all_start_methods()


def run_conservative(factory: Callable[[int], ShardRunner], num_shards: int,
                     lookahead: Lookahead, timeout_s: float,
                     workers: int = 1) -> tuple[bool, float, list[Any]]:
    """Run every shard to completion under conservative synchronization.

    ``factory(shard_index)`` builds one shard's runner; with ``workers > 1``
    it is invoked inside forked worker processes (shard state never leaves
    its process).  Returns ``(decided, stop_time, finals)`` where ``finals``
    is each runner's ``finish()`` report in shard order.  The barrier
    sequence -- and therefore every shard-local execution -- is independent
    of ``workers``.
    """
    if num_shards < 1:
        raise ShardSyncError("need at least one shard")
    workers = max(1, min(workers, num_shards))
    if workers > 1 and not fork_available():  # pragma: no cover - linux CI
        workers = 1
    if workers > 1:
        pool: Any = _ForkedPool(factory, num_shards, workers)
    else:
        pool = _InProcessPool([factory(index) for index in range(num_shards)])
    try:
        # Window 0 runs the time-zero cascade.  It needs no prior bound
        # exchange: a backbone access can only follow a _start_backoff, whose
        # minimum DIFS deferral puts the earliest possible transmission
        # strictly after t=0.
        horizon = 0.0
        results = pool.step(horizon, {})
        decided = all(result.done for result in results)
        while not decided and horizon < timeout_s:
            fresh = _sorted_emissions(results)
            bounds = [result.bound for result in results]
            target = next_horizon(bounds, fresh, lookahead, timeout_s)
            if target <= horizon and target < timeout_s:
                raise ShardSyncError(
                    f"horizon stalled at {horizon} (next target {target}); "
                    f"a shard promised an already-elapsed bound")
            ghosts = {index: _route(fresh, index) for index in range(num_shards)}
            results = pool.step(target, ghosts)
            horizon = target
            decided = all(result.done for result in results)
        finals = pool.finish()
        return decided, horizon, finals
    finally:
        pool.close()
