"""Outside-only span tracer: wrap public functions, attribute self time.

The ledger measures each layer of ``repro`` from outside: a *wrap point*
names a function by ``(layer, group, owner, attribute)``, installing the
tracer replaces that attribute with a timing wrapper, and leaving the
``with`` block restores every attribute -- also when the traced code raises.
Nothing in ``src/`` knows it is being traced.

Arithmetic.  Every wrapped call is a span; spans nest on a per-thread stack.
A span's *self time* is its duration minus the durations of its direct child
spans, so the self times of all spans under one root add up to the root's
duration exactly, and whatever the wrappers do not cover inside a span stays
with that span's ``(layer, group)``.  Aggregates (calls, total, self) are
kept per ``(layer, group)`` in memory; raw spans are kept only when
``keep_spans`` is set, for a human to read.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple, Optional


class TracerError(RuntimeError):
    """A wrap point could not be resolved or is not a plain function."""


class Callback(NamedTuple):
    """A callable *argument* of a wrap point that gets its own spans.

    The simulator's ``run_until(predicate, ...)`` is a net-layer function
    whose predicate is testbed code; wrapping the argument on the way in
    gives the predicate its own ``(layer, group)`` without touching either.
    """

    position: int
    keyword: str
    layer: str
    group: str


class WrapPoint(NamedTuple):
    """``owner`` is ``"package.module"`` or ``"package.module:Class"``."""

    layer: str
    group: str
    owner: str
    attribute: str
    callback: Optional[Callback] = None
    #: keep every return value in ``Tracer.captured[group]``
    capture: bool = False


def _suite(group: str, *names: str) -> tuple:
    return tuple(WrapPoint("crypto", group, "repro.crypto.timing:CryptoSuite",
                           name) for name in names)


def _pool(owner: str) -> tuple:
    return tuple(WrapPoint("testbed", "mempool", owner, name)
                 for name in ("admit", "take", "commit", "requeue"))


#: Where the ledger cuts ``repro`` into layers.  Functions imported by name
#: (``from x import f``) are patched in the module that looks them up.
REPRO_WRAP_POINTS: tuple = (
    *_suite("sig", "sign", "verify"),
    *_suite("tsig", "tsig_share", "tsig_verify_share", "tsig_combine",
            "tsig_verify"),
    *_suite("coin", "coin_share", "coin_verify_share", "coin_combine",
            "coin_combine_value"),
    *_suite("tenc", "encrypt", "decryption_share", "verify_decryption_share",
            "decrypt"),
    WrapPoint("components", "dispatch",
              "repro.components.base:ComponentRouter", "dispatch"),
    WrapPoint("components", "erasure", "repro.components.rbc_cachin",
              "encode_blocks"),
    WrapPoint("components", "erasure", "repro.components.rbc_cachin",
              "decode_blocks"),
    WrapPoint("core", "handle_frame", "repro.core.batcher:BaseTransport",
              "handle_frame"),
    WrapPoint("core", "send", "repro.core.batcher:BaselineTransport", "send"),
    WrapPoint("core", "send", "repro.core.batcher:ConsensusBatcherTransport",
              "send"),
    WrapPoint("net", "event_loop", "repro.net.sim:Simulator", "run_until",
              Callback(1, "predicate", "testbed", "poll")),
    WrapPoint("net", "event_loop", "repro.net.sim:Simulator", "run_window",
              Callback(2, "poll", "testbed", "poll")),
    WrapPoint("net", "deliver_frame", "repro.net.node:NetworkNode",
              "deliver_frame"),
    WrapPoint("net", "broadcast", "repro.net.node:NetworkNode", "broadcast"),
    # the batcher builds its packet when the MAC wins the channel: the
    # builder is core code running inside the net event loop
    WrapPoint("net", "broadcast", "repro.net.node:NetworkNode",
              "broadcast_deferred",
              Callback(1, "builder", "core", "build_packet")),
    WrapPoint("net", "shard", "repro.testbed.sharding", "run_conservative"),
    WrapPoint("net", "shard_horizon", "repro.net.shard", "next_horizon"),
    WrapPoint("protocols", "propose",
              "repro.protocols.honeybadger:HoneyBadger", "propose"),
    WrapPoint("protocols", "propose", "repro.protocols.dumbo:Dumbo", "propose"),
    *_pool("repro.testbed.streaming:Mempool"),
    *_pool("repro.testbed.ingress:PriorityMempool"),
    WrapPoint("testbed", "gateway", "repro.testbed.ingress:IngressGateway",
              "submit"),
    WrapPoint("testbed", "gateway", "repro.testbed.ingress:IngressGateway",
              "release_deferred"),
    WrapPoint("testbed", "build_deployment", "repro.testbed.harness",
              "build_deployment", capture=True),
    WrapPoint("testbed", "build_deployment", "repro.testbed.streaming",
              "build_deployment", capture=True),
    WrapPoint("testbed", "build_deployment", "repro.testbed.sharding",
              "build_shard_deployment", capture=True),
)


class Totals(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def _resolve(owner: str) -> Any:
    module_name, _, qualname = owner.partition(":")
    try:
        target = importlib.import_module(module_name)
        for part in filter(None, qualname.split(".")):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise TracerError(f"cannot resolve wrap point owner {owner!r}: {exc}") \
            from exc
    return target


class Tracer:
    """Span recorder; see the module docstring for the arithmetic."""

    def __init__(self, keep_spans: bool = False,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: raw spans ``[name, start, end, parent_id, run_id]`` (id = index);
        #: None unless ``keep_spans``
        self.spans: Optional[list] = [] if keep_spans else None
        #: label of the root span in progress, stamped on every raw span
        self.run_id = ""
        self.captured: dict = {}
        self._stats: dict = {}
        self._local = threading.local()

    # ------------------------------------------------------------------ spans
    def wrap(self, layer: str, group: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``(layer, group)`` span."""
        stats = self._stats.setdefault((layer, group), [0, 0.0, 0.0])
        clock, spans, local = self.clock, self.spans, self._local
        name = f"{layer}.{group}"

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:  # first span on this thread
                stack = local.stack = []
            frame = [0.0, -1]  # time covered by child spans, own span id
            if spans is not None:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if spans is not None:
                    spans[frame[1]] = [name, start, start + duration,
                                       stack[-1][1] if stack else -1,
                                       self.run_id]

        return traced

    def call(self, layer: str, group: str, run_id: str, fn: Callable,
             *args: Any) -> Any:
        """``fn(*args)`` as an explicit span (the root around one entry-point
        call); ``run_id`` is stamped on every raw span recorded under it."""
        self.run_id = run_id
        return self.wrap(layer, group, fn)(*args)

    # ---------------------------------------------------------------- patches
    def _wrapper_for(self, point: WrapPoint, original: Callable) -> Callable:
        timed = self.wrap(point.layer, point.group, original)
        captured = self.captured.setdefault(point.group, []) \
            if point.capture else None
        callback = point.callback
        if captured is None and callback is None:
            return timed

        def patched(*args: Any, **kwargs: Any) -> Any:
            if callback is not None:
                position, keyword, layer, group = callback
                if kwargs.get(keyword) is not None:
                    kwargs[keyword] = self.wrap(layer, group, kwargs[keyword])
                elif len(args) > position and args[position] is not None:
                    args = (*args[:position],
                            self.wrap(layer, group, args[position]),
                            *args[position + 1:])
            value = timed(*args, **kwargs)
            if captured is not None:
                captured.append(value)
            return value

        return patched

    @contextmanager
    def installed(self, points: tuple) -> Iterator["Tracer"]:
        """Patch every wrap point; restore all of them on the way out."""
        patched: list = []
        try:
            for point in points:
                owner = _resolve(point.owner)
                original = vars(owner).get(point.attribute)
                if not callable(original) or isinstance(
                        original, (staticmethod, classmethod)):
                    raise TracerError(
                        f"{point.owner}.{point.attribute} is not a plain "
                        f"function defined on its owner")
                setattr(owner, point.attribute,
                        self._wrapper_for(point, original))
                patched.append((owner, point.attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(patched):
                setattr(owner, attribute, original)

    # ---------------------------------------------------------------- reports
    def totals(self) -> dict:
        """``{(layer, group): Totals}`` of everything recorded so far."""
        return {key: Totals(*value) for key, value in self._stats.items()}

    def layer_totals(self) -> dict:
        """``{layer: Totals}``; ``total_s`` double-counts nesting, use self."""
        layers: dict = {}
        for (layer, _group), (calls, total, self_s) in self._stats.items():
            seen = layers.get(layer, (0, 0.0, 0.0))
            layers[layer] = (seen[0] + calls, seen[1] + total, seen[2] + self_s)
        return {layer: Totals(*value) for layer, value in layers.items()}

    def dump_spans(self, path: str) -> None:
        """Write the raw spans as JSON lines (requires ``keep_spans``)."""
        if self.spans is None:
            raise TracerError("raw spans were not kept (keep_spans=False)")
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, span in enumerate(self.spans):
                if span is None:  # still open: the run raised through it
                    continue
                name, start, end, parent, run_id = span
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "run": run_id}) + "\n")
