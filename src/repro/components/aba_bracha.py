"""Bracha's asynchronous Byzantine agreement (local coin) -- the paper's ABA-LC.

Each round has three phases (Fig. 1c).  In every phase a node broadcasts a
vote through a small reliable broadcast (one mini-RBC per voter, which is why
the wired message complexity is O(N^3)); a vote is *accepted* once its
mini-RBC delivers (``2f + 1`` readies).  The round logic follows Bracha's
1984 protocol:

* phase 1: broadcast the current estimate; after ``N - f`` accepted votes,
  adopt the majority value;
* phase 2: broadcast the adopted value; if more than ``(N + f) / 2`` of the
  ``N - f`` accepted votes agree on ``w``, adopt ``w``, otherwise adopt
  "undetermined" (``None``);
* phase 3: broadcast the phase-2 result; among accepted votes, if at least
  ``2f + 1`` carry the same determined value ``w`` the node *decides* ``w``;
  if at least ``f + 1`` do, it adopts ``w``; otherwise it flips its local
  coin and starts the next round.

Nodes that decide broadcast a DECIDED notice; ``f + 1`` matching notices let
lagging nodes decide too, which keeps every honest node live without running
rounds forever (:class:`~repro.components.aba_base.RoundBasedAba`).

Agreement and validity hold for up to ``f`` Byzantine nodes; termination is
probabilistic (expected constant rounds when inputs already agree, which is
the common case inside ACS).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.components.aba_base import RoundBasedAba
from repro.components.votes import NOTHING, BrachaVotes
from repro.core.packet import ComponentMessage

#: marker for the "undetermined" phase-2/3 value
UNDETERMINED = "?"


#: a round's phases; a message naming another is dropped
PHASES = (1, 2, 3)


@dataclass(slots=True)
class _RoundState:
    """Per-round voting state.  Phase sets are ints with bit ``phase`` set
    for each phase in them."""

    started_phases: int = 0
    completed_phases: int = 0
    #: one mini-RBC per ``(phase, voter)``, keyed by the vote's value; a vote
    #: is accepted once its tally has a deliverable value
    mini: dict[tuple[int, int], BrachaVotes] = field(default_factory=dict)
    #: the INITIALs this node has echoed: bit ``4 * voter + phase`` (the
    #: phases 1-3 fit in two bits)
    echoed: int = 0
    my_votes: dict[int, Any] = field(default_factory=dict)


class BrachaAba(RoundBasedAba):
    """One Bracha ABA instance deciding a single bit."""

    kind = "aba_lc"
    round_state = _RoundState

    # ----------------------------------------------------------------- handle
    def handle(self, message: ComponentMessage) -> None:
        """Process phase votes and DECIDED notices."""
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
        if phase not in PHASES:
            return
        kind = parts[1]
        round_number = message.round
        state = self._rounds[round_number]
        if kind == "initial":
            voter = message.sender
            # nothing to count yet, but tallies are walked in creation order
            # when votes are counted (it breaks the phase-1 majority tie)
            self._mini(state, round_number, phase, voter)
            echo = 1 << (4 * voter + phase)
            if not state.echoed & echo:
                state.echoed |= echo
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

    # ------------------------------------------------------- mini-RBC machinery
    def _mini(self, state: _RoundState, round_number: int, phase: int,
              voter: int) -> BrachaVotes:
        votes = state.mini.get((phase, voter))
        if votes is None:
            votes = state.mini[phase, voter] = BrachaVotes(
                self.ctx.quorum, self.ctx.small_quorum,
                partial(self._send_vote_ready, round_number, phase, voter))
        return votes

    def _send_vote_ready(self, round_number: int, phase: int, voter: int,
                         value: Any) -> None:
        self.send(f"p{phase}_ready", {"voter": voter, "value": value},
                  round_number=round_number, slot=voter)

    # ----------------------------------------------------------- round logic
    def _start_phase(self, round_number: int, phase: int) -> None:
        state = self._rounds[round_number]
        if state.started_phases >> phase & 1:
            return
        state.started_phases |= 1 << phase
        # phases 2 and 3 vote what the phase before them left in my_votes
        vote = state.my_votes.setdefault(phase, self.estimate)
        self.send(f"p{phase}_initial", {"value": vote},
                  round_number=round_number, payload_bytes=1)

    def _accepted_votes(self, state: _RoundState, phase: int) -> dict[int, Any]:
        return {voter: votes.deliverable
                for (mini_phase, voter), votes in state.mini.items()
                if mini_phase == phase and votes.deliverable is not NOTHING}

    def _check_phase_completion(self, state: _RoundState, round_number: int,
                                phase: int) -> None:
        if self._halted or round_number != self.round:
            return
        if not state.started_phases >> phase & 1 \
                or state.completed_phases >> phase & 1:
            return
        accepted = self._accepted_votes(state, phase)
        needed = self.ctx.num_nodes - self.ctx.faults
        if len(accepted) < needed:
            return
        state.completed_phases |= 1 << phase
        counts: dict[Any, int] = {}
        for value in accepted.values():
            counts[value] = counts.get(value, 0) + 1
        if phase == 1:
            majority_value = max(counts, key=counts.get)
            state.my_votes[2] = majority_value
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
        determined = {value: count for value, count in counts.items()
                      if value != UNDETERMINED and value is not None}
        best_value, best_count = None, 0
        for value, count in determined.items():
            if count > best_count:
                best_value, best_count = value, count
        if best_count >= self.ctx.quorum:
            self.estimate = best_value
            self._decide(best_value)
        elif self.decided_value is not None:
            # Already decided in an earlier round: keep helping with that value.
            self.estimate = self.decided_value
        elif best_count >= self.ctx.small_quorum:
            self.estimate = best_value
        else:
            self.estimate = self.ctx.rng.randrange(2)
        # Keep participating until enough DECIDED notices exist that every
        # honest node is guaranteed to see f + 1 of them.
        self._next_round(round_number)

    def _enter_round(self, round_number: int) -> None:
        self._start_phase(round_number, 1)
        state = self._rounds[round_number]
        for phase in PHASES:
            self._check_phase_completion(state, round_number, phase)
