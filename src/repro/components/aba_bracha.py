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
rounds forever.

Agreement and validity hold for up to ``f`` Byzantine nodes; termination is
probabilistic (expected constant rounds when inputs already agree, which is
the common case inside ACS).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.components.base import Component, ComponentContext, OutputCallback
from repro.core.packet import ComponentMessage

#: marker for the "undetermined" phase-2/3 value
UNDETERMINED = "?"


@dataclass
class _MiniRbcState:
    """Reliable-broadcast state for one voter's vote in one phase."""

    value: Any = None
    echoes: dict[Any, set[int]] = field(default_factory=dict)
    readies: dict[Any, set[int]] = field(default_factory=dict)
    echo_sent: bool = False
    ready_sent: bool = False
    accepted: bool = False
    accepted_value: Any = None


@dataclass
class _RoundState:
    """Per-round voting state."""

    started_phases: set[int] = field(default_factory=set)
    completed_phases: set[int] = field(default_factory=set)
    mini: dict[tuple[int, int], _MiniRbcState] = field(default_factory=dict)
    my_votes: dict[int, Any] = field(default_factory=dict)


class BrachaAba(Component):
    """One Bracha ABA instance deciding a single bit."""

    kind = "aba_lc"

    def __init__(self, ctx: ComponentContext, instance: int, tag: Any = None,
                 on_output: Optional[OutputCallback] = None,
                 max_rounds: int = 64) -> None:
        super().__init__(ctx, instance, tag, on_output)
        self.max_rounds = max_rounds
        self.estimate: Optional[int] = None
        self.round = 0
        self.decided_value: Optional[int] = None
        # created on first lookup (messages for a round can arrive early)
        self._rounds: dict[int, _RoundState] = defaultdict(_RoundState)
        self._decided_notices: dict[int, set[int]] = {}
        self._decided_sent = False
        self._started = False
        self._halted = False
        self.rounds_executed = 0

    # ------------------------------------------------------------------ start
    def start(self, value: int) -> None:
        """Provide this node's binary input and start round 0."""
        if self._started:
            return
        if value not in (0, 1):
            raise ValueError(f"ABA input must be 0 or 1, got {value!r}")
        self._started = True
        self.estimate = value
        self._start_phase(self.round, 1)

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
            phase_number = int(parts[0][1:])
        except ValueError:
            return
        kind = parts[1]
        round_number = message.round
        state = self._rounds[round_number]
        if kind == "initial":
            self._on_vote_initial(state, round_number, phase_number, message)
        elif kind == "echo":
            self._on_vote_echo(state, round_number, phase_number, message)
        elif kind == "ready":
            self._on_vote_ready(state, round_number, phase_number, message)

    # ------------------------------------------------------- mini-RBC machinery
    def _mini(self, state: _RoundState, phase: int, voter: int) -> _MiniRbcState:
        return state.mini.setdefault((phase, voter), _MiniRbcState())

    def _on_vote_initial(self, state: _RoundState, round_number: int,
                         phase: int, message: ComponentMessage) -> None:
        voter = message.sender
        mini = self._mini(state, phase, voter)
        if mini.value is None:
            mini.value = message.payload.get("value")
            if not mini.echo_sent:
                mini.echo_sent = True
                self.send(f"p{phase}_echo", {"voter": voter, "value": mini.value},
                          round_number=round_number, slot=voter)
        self._check_mini(state, round_number, phase, voter)

    def _on_vote_echo(self, state: _RoundState, round_number: int,
                      phase: int, message: ComponentMessage) -> None:
        voter = message.payload.get("voter")
        value = message.payload.get("value")
        if voter is None:
            return
        mini = self._mini(state, phase, voter)
        mini.echoes.setdefault(value, set()).add(message.sender)
        self._check_mini(state, round_number, phase, voter)

    def _on_vote_ready(self, state: _RoundState, round_number: int,
                       phase: int, message: ComponentMessage) -> None:
        voter = message.payload.get("voter")
        value = message.payload.get("value")
        if voter is None:
            return
        mini = self._mini(state, phase, voter)
        mini.readies.setdefault(value, set()).add(message.sender)
        self._check_mini(state, round_number, phase, voter)

    def _check_mini(self, state: _RoundState, round_number: int, phase: int,
                    voter: int) -> None:
        mini = self._mini(state, phase, voter)
        for value, echoers in mini.echoes.items():
            if len(echoers) >= self.ctx.quorum and not mini.ready_sent:
                mini.ready_sent = True
                self.send(f"p{phase}_ready", {"voter": voter, "value": value},
                          round_number=round_number, slot=voter)
        for value, readiers in mini.readies.items():
            if len(readiers) >= self.ctx.small_quorum and not mini.ready_sent:
                mini.ready_sent = True
                self.send(f"p{phase}_ready", {"voter": voter, "value": value},
                          round_number=round_number, slot=voter)
            if len(readiers) >= self.ctx.quorum and not mini.accepted:
                mini.accepted = True
                mini.accepted_value = value
        self._check_phase_completion(state, round_number, phase)

    # ----------------------------------------------------------- round logic
    def _start_phase(self, round_number: int, phase: int) -> None:
        state = self._rounds[round_number]
        if phase in state.started_phases:
            return
        state.started_phases.add(phase)
        vote = self._phase_input(round_number, phase)
        state.my_votes[phase] = vote
        self.send(f"p{phase}_initial", {"value": vote},
                  round_number=round_number, payload_bytes=1)

    def _phase_input(self, round_number: int, phase: int) -> Any:
        state = self._rounds[round_number]
        if phase == 1:
            return self.estimate
        return state.my_votes.get(phase, self.estimate)

    def _accepted_votes(self, state: _RoundState, phase: int) -> dict[int, Any]:
        return {voter: mini.accepted_value
                for (mini_phase, voter), mini in state.mini.items()
                if mini_phase == phase and mini.accepted}

    def _check_phase_completion(self, state: _RoundState, round_number: int,
                                phase: int) -> None:
        if self._halted or round_number != self.round:
            return
        if phase not in state.started_phases or phase in state.completed_phases:
            return
        accepted = self._accepted_votes(state, phase)
        needed = self.ctx.num_nodes - self.ctx.faults
        if len(accepted) < needed:
            return
        state.completed_phases.add(phase)
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
        # honest node is guaranteed to see f + 1 of them (standard termination
        # helper for round-based ABA).
        if not self._halted:
            self._advance_round(round_number + 1)

    def _advance_round(self, next_round: int) -> None:
        if self._halted:
            return
        if next_round >= self.max_rounds:
            # Safety net against pathological schedules in bounded experiments.
            self._decide(self.estimate if self.estimate in (0, 1) else 0)
            self._halted = True
            return
        self.round = next_round
        # Slots of earlier rounds are intentionally kept in the transport so
        # that NACK repair can still serve laggards that are stuck in an older
        # round; dirty-only packet building keeps them off the air otherwise.
        self._start_phase(next_round, 1)
        # Re-examine any votes that arrived for this round before we entered it.
        state = self._rounds[next_round]
        for phase in (1, 2, 3):
            self._check_phase_completion(state, next_round, phase)

    # ----------------------------------------------------------------- decide
    def _decide(self, value: int) -> None:
        if self.decided_value is None:
            self.decided_value = value
        if not self._decided_sent:
            self._decided_sent = True
            self._decided_notices.setdefault(value, set()).add(self.ctx.node_id)
            self.send("decided", {"value": value}, payload_bytes=1)
        self.complete(value)
        self._maybe_halt()

    def _on_decided(self, message: ComponentMessage) -> None:
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
        """Stop running rounds once enough nodes are known to have decided."""
        if self.decided_value is None:
            return
        notices = len(self._decided_notices.get(self.decided_value, set()))
        if notices >= self.ctx.quorum:
            self._halted = True
