"""Component runtime: context, base class and message router.

A consensus component instance (one RBC, one ABA, ...) is an event-driven
state machine identified by ``(kind, tag, instance)``:

* ``kind``     -- the component family (``rbc``, ``cbc``, ``aba_sc``, ...);
* ``tag``      -- the protocol scope it belongs to (an epoch id, or Dumbo's
  ``value`` / ``commit`` CBC set), so that several protocols or epochs can
  coexist on one node;
* ``instance`` -- the index of the parallel instance (usually the proposer's
  node id, or the ABA slot).

Messages flow through a transport (batched or baseline); the
:class:`ComponentRouter` is registered as the transport's receiver and
dispatches each :class:`~repro.core.packet.ComponentMessage` to the matching
instance, buffering messages that arrive before their instance exists --
a routine occurrence in asynchronous protocols.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.batcher import BaseTransport
from repro.core.packet import ComponentMessage, tag_in_scope, tag_scope_chain
from repro.crypto.timing import CryptoSuite
from repro.net.sim import Simulator

OutputCallback = Callable[[int, Any], None]


def sha256_hex(data: bytes) -> str:
    """Short helper: hex SHA-256 of ``data`` (proposal identification)."""
    return hashlib.sha256(data).hexdigest()


@dataclass
class ComponentContext:
    """Everything a component needs from its hosting node."""

    node_id: int
    num_nodes: int
    faults: int
    transport: BaseTransport
    suite: CryptoSuite
    sim: Simulator
    rng: Any
    #: the 2f + 1 and f + 1 quorums.  Fixed at construction (``faults`` is
    #: never reassigned; a membership change builds fresh contexts), because
    #: every vote a component counts is compared against one of them.
    quorum: int = field(init=False)
    small_quorum: int = field(init=False)

    def __post_init__(self) -> None:
        self.quorum = 2 * self.faults + 1
        self.small_quorum = self.faults + 1


class Component:
    """Base class for consensus component instances."""

    kind = "abstract"

    def __init__(self, ctx: ComponentContext, instance: int, tag: Any = None,
                 on_output: Optional[OutputCallback] = None) -> None:
        self.ctx = ctx
        self.instance = instance
        self.tag = tag
        #: ``(kind, tag, instance)``, built once: the router and the
        #: transport's instance sets hold this very tuple
        self.key = (self.kind, tag, instance)
        self.on_output = on_output
        self.completed = False
        self.output: Any = None
        ctx.transport.activate(self.key)

    # ------------------------------------------------------------------ sends
    def send(self, phase: str, payload: Any, payload_bytes: int = 0,
             share_bytes: int = 0, round_number: int = 0,
             slot: Any = None) -> None:
        """Broadcast a logical message for this instance."""
        message = ComponentMessage(
            kind=self.kind, instance=self.instance, phase=phase,
            sender=self.ctx.node_id, payload=payload,
            payload_bytes=payload_bytes, share_bytes=share_bytes,
            round=round_number, tag=self.tag, slot=slot)
        self.ctx.transport.send(message)

    # ---------------------------------------------------------------- receive
    def handle(self, message: ComponentMessage) -> None:  # pragma: no cover - abstract
        """Process one logical message addressed to this instance."""
        raise NotImplementedError

    # --------------------------------------------------------------- complete
    def complete(self, output: Any) -> None:
        """Record the instance's output and notify the owner (idempotent)."""
        if self.completed:
            return
        self.completed = True
        self.output = output
        # Stop NACK-requesting for this instance; peers may still ask us for
        # its state and we will keep answering from the transport slots.
        self.ctx.transport.mark_complete(self.key)
        if self.on_output is not None:
            self.on_output(self.instance, output)

    def close(self) -> None:
        """Drop the callback state (the instance was released, or its
        deployment closed): ``on_output`` is usually a bound method of the
        owner that holds this instance, a reference cycle."""
        self.on_output = None

    # ------------------------------------------------------------------ misc
    def describe(self) -> str:
        """Readable identifier for logging."""
        tag = f"/{self.tag}" if self.tag is not None else ""
        return f"{self.kind}{tag}[{self.instance}]@node{self.ctx.node_id}"


class Broadcast(Component):
    """A component one node opens: ``instance`` doubles as the proposer's
    node id unless ``proposer`` names another."""

    def __init__(self, ctx: ComponentContext, instance: int, tag: Any = None,
                 on_output: Optional[OutputCallback] = None,
                 proposer: Optional[int] = None) -> None:
        super().__init__(ctx, instance, tag, on_output)
        self.proposer = instance if proposer is None else proposer

    def start(self, value: Any) -> None:
        """Proposer entry point: only the proposer may :meth:`propose`."""
        if self.ctx.node_id != self.proposer:
            raise ValueError(
                f"node {self.ctx.node_id} is not the proposer of {self.describe()}")
        self.propose(value)

    def propose(self, value: Any) -> None:  # pragma: no cover - abstract
        """Put ``value`` on the air (called on the proposer only)."""
        raise NotImplementedError


class ComponentRouter:
    """Routes delivered messages to component instances, buffering early ones."""

    def __init__(self) -> None:
        self._components: dict[tuple, Component] = {}
        self._pending: dict[tuple, list[ComponentMessage]] = defaultdict(list)
        self._extra_handlers: dict[tuple, Callable[[ComponentMessage], None]] = {}
        #: per scope tag, the objects adopted for the scope's life
        self._owners: dict[Any, list[Any]] = {}
        #: scope roots reclaimed by release_tag; late messages for them are
        #: dropped instead of buffered (one tiny tuple per released epoch)
        self._released: set = set()

    # --------------------------------------------------------------- register
    def register(self, component: Component) -> None:
        """Register a component instance and replay any buffered messages."""
        key = component.key
        self._components[key] = component
        pending = self._pending.pop(key, [])
        for message in pending:
            component.handle(message)

    def register_kind_handler(self, kind: str, tag: Any,
                              handler: Callable[[ComponentMessage], None]) -> None:
        """Register a handler for a (kind, tag) pair (e.g. the common-coin
        manager, which serves every instance of its protocol scope)."""
        self._extra_handlers[(kind, tag)] = handler

    def adopt(self, tag: Any, owner: Any) -> None:
        """Hold ``owner`` -- a protocol instance, whose callbacks and
        components point back at it -- until ``tag``'s scope is released or
        the router closes; either calls ``owner.close()``."""
        self._owners.setdefault(tag, []).append(owner)

    def get(self, kind: str, tag: Any, instance: int) -> Optional[Component]:
        """Look up a registered component instance."""
        return self._components.get((kind, tag, instance))

    # --------------------------------------------------------------- dispatch
    def dispatch(self, message: ComponentMessage) -> None:
        """Deliver a message to its component (or buffer it until it exists)."""
        kind, tag = message.kind, message.tag
        if self._extra_handlers:
            handler = self._extra_handlers.get((kind, tag))
            if handler is not None:
                handler(message)
                return
        key = (kind, tag, message.instance)
        component = self._components.get(key)
        if component is None:
            # A message for a released (checkpointed) scope is stale by
            # definition -- drop it instead of buffering it forever.
            if self._released and any(root in self._released
                                      for root in tag_scope_chain(tag)):
                return
            self._pending[key].append(message)
            return
        component.handle(message)

    # ------------------------------------------------------------ epoch GC
    def release_tag(self, root: Any) -> int:
        """Drop every component, kind handler and buffered message whose tag
        falls in the scope of ``root`` (see
        :func:`repro.core.packet.tag_in_scope`).

        Called by the streaming testbed after an epoch checkpoint: once every
        honest node has decided epoch ``e``, nothing will ever dispatch to
        its components again, so holding them would grow node memory
        O(history) instead of O(backlog).  The root is remembered so that
        messages still in flight at checkpoint time are *dropped* on arrival
        rather than re-buffered into ``_pending`` (the remembered roots cost
        one small tuple per released epoch).  Dropped components and
        adopted owners are closed, so reference counting frees them.
        Returns the number of dropped components (for GC-bound assertions
        in tests).
        """
        self._released.add(root)
        stale = [key for key in self._components if tag_in_scope(key[1], root)]
        for key in stale:
            self._components.pop(key).close()
        for key in [key for key in self._pending
                    if tag_in_scope(key[1], root)]:
            del self._pending[key]
        for key in [key for key in self._extra_handlers
                    if tag_in_scope(key[1], root)]:
            del self._extra_handlers[key]
        for tag in [tag for tag in self._owners if tag_in_scope(tag, root)]:
            for owner in self._owners.pop(tag):
                owner.close()
        return len(stale)

    def close(self) -> None:
        """Close and drop every component and adopted owner, and drop every
        kind handler and buffered message (end of run)."""
        for component in self._components.values():
            component.close()
        for owners in self._owners.values():
            for owner in owners:
                owner.close()
        for registry in (self._components, self._pending,
                         self._extra_handlers, self._owners):
            registry.clear()
