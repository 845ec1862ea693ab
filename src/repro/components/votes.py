"""Bracha's ECHO / READY vote rule, once.

Every Bracha-style broadcast here -- RBC, PRBC, RBC-small, the erasure-coded
RBC and the per-voter mini-RBCs of the local-coin ABA -- counts votes on
*keys* (a proposal hash, a small value, a dispersal root) under one rule:
``2f + 1`` echoes or ``f + 1`` readies for a key send READY for it, once;
``2f + 1`` readies make the key deliverable.  The owner of a
:class:`BrachaVotes` decides what a key is, how READY goes on the air and
what delivery needs beyond the quorum.
"""

from __future__ import annotations

from collections import defaultdict
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
    deliverable and complete the owner) before ``send_ready`` returns.

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
        self.echoes: dict[Any, set[int]] = defaultdict(set)
        self.readies: dict[Any, set[int]] = defaultdict(set)
        self.ready_sent = False
        self.deliverable: Any = NOTHING

    def echo(self, key: Any, sender: int) -> None:
        """Count ``sender``'s ECHO for ``key``."""
        voters = self.echoes[key]
        voters.add(sender)
        if not self.ready_sent and len(voters) >= self.quorum:
            self.ready_sent = True
            self.send_ready(key)

    def ready(self, key: Any, sender: int) -> None:
        """Count ``sender``'s READY for ``key``."""
        voters = self.readies[key]
        voters.add(sender)
        if self.deliverable is not NOTHING:
            return
        if not self.ready_sent and len(voters) >= self.small_quorum:
            self.ready_sent = True
            self.send_ready(key)
        if self.deliverable is NOTHING and len(voters) >= self.quorum:
            self.deliverable = key
