"""Bracha's ECHO / READY vote rule, once.

Every Bracha-style broadcast here -- RBC, PRBC, RBC-small, the erasure-coded
RBC and the per-voter mini-RBCs of the local-coin ABA -- counts votes on
*keys* (a proposal hash, a small value, a dispersal root) under one rule:
``2f + 1`` echoes or ``f + 1`` readies for a key send READY for it, once;
``2f + 1`` readies make the key deliverable.  The owner of a
:class:`BrachaVotes` decides what a key is, how READY goes on the air and
what delivery needs beyond the quorum.

A tally is an int bitmask of voter ids: a vote sets ``1 << sender`` and a
quorum test reads ``bit_count()``.  At ``n = 32`` that is one small int per
key where a set of ids took 2 KiB, and every node holds ``O(n^2)`` tallies
per round of ``n`` parallel instances.  ``sender`` must be an authenticated
node id (a packet's verified signer, or the node's own id), never a payload
field: it becomes a shift count.
"""

from __future__ import annotations

from typing import Any, Callable

#: :attr:`BrachaVotes.deliverable` before any key has ``2f + 1`` readies
#: (``None`` is a legal key: RBC-small's BOT, a garbage ABA vote)
NOTHING: Any = object()


class BrachaVotes:
    """Echo / ready tallies of one broadcast instance.

    The rule is evaluated on the key a vote touched, never by scanning:
    tallies only grow, so no other key can have crossed a threshold.

    ``send_ready(key)`` runs at most once, *inside* the call whose vote
    crossed the threshold -- after the sent flag is set, before the delivery
    quorum is tested.  A transport hands a node its own broadcast at once, so
    the owner's READY re-enters :meth:`ready` (and may make the key
    deliverable and complete the owner) before ``send_ready`` returns, so
    the tally is re-read after it.

    The first key to collect ``2f + 1`` readies stays :attr:`deliverable`.
    Honest nodes send one READY each, so with at most ``f`` faulty nodes no
    second key gets there: the choice is unobservable inside the fault model.
    """

    __slots__ = ("quorum", "small_quorum", "send_ready", "echoes", "readies",
                 "ready_sent", "deliverable")

    def __init__(self, quorum: int, small_quorum: int,
                 send_ready: Callable[[Any], None]) -> None:
        self.quorum = quorum
        self.small_quorum = small_quorum
        self.send_ready = send_ready
        #: per key, the voter bitmask of its ECHOs and of its READYs
        self.echoes: dict[Any, int] = {}
        self.readies: dict[Any, int] = {}
        self.ready_sent = False
        self.deliverable: Any = NOTHING

    def echo(self, key: Any, sender: int) -> None:
        """Count ``sender``'s ECHO for ``key``."""
        voters = self.echoes[key] = self.echoes.get(key, 0) | 1 << sender
        if not self.ready_sent and voters.bit_count() >= self.quorum:
            self.ready_sent = True
            self.send_ready(key)

    def ready(self, key: Any, sender: int) -> None:
        """Count ``sender``'s READY for ``key``."""
        voters = self.readies[key] = self.readies.get(key, 0) | 1 << sender
        if self.deliverable is not NOTHING:
            return
        if not self.ready_sent and voters.bit_count() >= self.small_quorum:
            self.ready_sent = True
            self.send_ready(key)
            # an int is a copy, not the live tally a set was: re-read it,
            # the own READY may have been counted inside send_ready
            voters = self.readies[key]
        if self.deliverable is NOTHING and voters.bit_count() >= self.quorum:
            self.deliverable = key
