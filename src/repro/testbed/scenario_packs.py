"""Declarative time-varying network scenario packs.

Every fault the campaign injects elsewhere is *static for the whole run*;
real deployments see link quality that evolves -- good-bad-good variable
links, escalating burst loss, intermittent connectivity, satellite latency,
congestion collapse.  This module is the robustness subsystem that models
them: a schema-validated JSON/dict format describing **phases on the
virtual-time axis**, a curated pack library shipped as data files under
``packs/``, and a :class:`ScenarioController` that applies the phases to a
live deployment deterministically, driven from simulator time.

Format
------

A pack is a dict (usually a ``.json`` file)::

    {"name": "variable-link",
     "description": "good -> degraded -> recovered link quality",
     "phases": [
        {"name": "good", "duration_s": 40.0},
        {"name": "degraded", "duration_s": 50.0,
         "drop_rate": 0.15, "reorder_jitter_s": 0.5},
        {"name": "recovered", "duration_s": 60.0}]}

Phases are consecutive windows on the virtual-time axis; each may activate
message-level faults (``drop_rate`` / ``duplicate_rate`` /
``reorder_jitter_s``), cut the network (``partition_split`` -- the fraction
of node ids in the first group of a two-way partition), and override the
radio/latency parameters (``extra_latency_s`` adds a fixed per-link delay,
``jitter_scale`` multiplies the deployment's base jitter).  The final phase
extends to the end of the run.  The loader rejects malformed packs loudly --
unknown keys, overlapping or negative phases, probabilities outside [0, 1] --
naming the offending field (proto2testbed-style schema discipline).

Determinism contract
--------------------

The controller installs and retires :class:`~repro.net.adversary`
``LinkFaultSpec`` / ``PartitionSpec`` objects at phase boundaries via
simulator events.  Because ``AsyncAdversary.plan_delivery`` draws RNG only
when a fault actually matches a delivery, and phase transitions themselves
draw nothing, a scenario run is a pure function of ``(pack, protocol,
scenario, spec, seed, config)``; a single-phase no-op pack (the shipped
``baseline-perfect``) schedules **zero** events and is bit-identical to a
run with no scenario at all -- pinned by
``tests/testbed/test_scenario_packs.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro.net.adversary import LinkFaultSpec, PartitionSpec
from repro.testbed.metrics import PhaseRecord, percentile

#: directory holding the shipped pack library (plain data files, read with
#: a package-relative path so no installation machinery is needed)
PACKS_DIR = Path(__file__).with_name("packs")

_PACK_KEYS = frozenset({"name", "description", "phases"})
_PHASE_KEYS = frozenset({
    "name", "duration_s", "drop_rate", "duplicate_rate", "reorder_jitter_s",
    "extra_latency_s", "jitter_scale", "partition_split", "degraded",
    "start_s",
})


class PackValidationError(ValueError):
    """A scenario pack failed schema validation (always names the field)."""


def _require_number(value: Any, field_name: str, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PackValidationError(
            f"{context}: {field_name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ScenarioPhase:
    """One window on a pack's virtual-time axis.

    ``degraded`` marks the phase for the degradation/recovery invariants
    (``None`` derives it: any fault, partition, extra latency or jitter
    amplification counts); authors override it for deployments where a mild
    effect *is* the nominal condition (the satellite pack's LEO phases).
    """

    name: str
    duration_s: float
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_jitter_s: float = 0.0
    extra_latency_s: float = 0.0
    jitter_scale: float = 1.0
    partition_split: Optional[float] = None
    degraded: Optional[bool] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise PackValidationError(
                f"phase name must be a non-empty string, got {self.name!r}")
        if not (self.duration_s > 0 and math.isfinite(self.duration_s)):
            raise PackValidationError(
                f"phase {self.name!r}: duration_s must be a positive finite "
                f"number of seconds, got {self.duration_s} (zero-length and "
                f"negative phases are rejected)")
        for field_name in ("drop_rate", "duplicate_rate"):
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise PackValidationError(
                    f"phase {self.name!r}: {field_name} must be in [0, 1], "
                    f"got {rate}")
        for field_name in ("reorder_jitter_s", "extra_latency_s"):
            value = getattr(self, field_name)
            if value < 0 or not math.isfinite(value):
                raise PackValidationError(
                    f"phase {self.name!r}: {field_name} must be finite and "
                    f">= 0, got {value}")
        if self.jitter_scale < 0 or not math.isfinite(self.jitter_scale):
            raise PackValidationError(
                f"phase {self.name!r}: jitter_scale must be finite and >= 0, "
                f"got {self.jitter_scale}")
        if self.partition_split is not None \
                and not 0.0 < self.partition_split < 1.0:
            raise PackValidationError(
                f"phase {self.name!r}: partition_split must be strictly "
                f"inside (0, 1), got {self.partition_split}")

    @property
    def is_degraded(self) -> bool:
        """Whether this phase counts as degraded for the recovery invariants."""
        if self.degraded is not None:
            return self.degraded
        return (self.drop_rate > 0 or self.duplicate_rate > 0
                or self.reorder_jitter_s > 0 or self.extra_latency_s > 0
                or self.jitter_scale > 1.0 or self.partition_split is not None)

    def link_fault(self, start_s: float,
                   end_s: float) -> Optional[LinkFaultSpec]:
        """The phase's message-level fault over [start_s, end_s), if any."""
        if not (self.drop_rate > 0 or self.duplicate_rate > 0
                or self.reorder_jitter_s > 0):
            return None
        return LinkFaultSpec(
            drop_rate=self.drop_rate, duplicate_rate=self.duplicate_rate,
            reorder_jitter_s=self.reorder_jitter_s, start_s=start_s,
            end_s=None if math.isinf(end_s) else end_s)

    def partition(self, start_s: float, end_s: float,
                  node_ids: Sequence[int]) -> Optional[PartitionSpec]:
        """The phase's two-way partition over the deployment's node ids.

        ``partition_split`` is a *fraction*, so packs stay independent of
        deployment size: the first ``round(split * n)`` ids (clamped so both
        groups are non-empty) form one group, the rest the other.
        """
        if self.partition_split is None:
            return None
        ids = sorted(node_ids)
        first = min(max(1, round(self.partition_split * len(ids))),
                    len(ids) - 1)
        return PartitionSpec(
            groups=(frozenset(ids[:first]), frozenset(ids[first:])),
            start_s=start_s, heal_s=None if math.isinf(end_s) else end_s)


@dataclass(frozen=True)
class ScenarioPack:
    """A validated scenario: named consecutive phases on the time axis."""

    name: str
    description: str
    phases: tuple[ScenarioPhase, ...]

    def __post_init__(self) -> None:
        if not self.name or not all(
                ch.islower() or ch.isdigit() or ch == "-" for ch in self.name):
            raise PackValidationError(
                f"pack name must be a non-empty lowercase slug "
                f"([a-z0-9-]), got {self.name!r}")
        if not self.description or not isinstance(self.description, str):
            raise PackValidationError(
                f"pack {self.name!r}: description must be a non-empty string")
        if not self.phases:
            raise PackValidationError(
                f"pack {self.name!r}: phases must be a non-empty list")
        names = [phase.name for phase in self.phases]
        for name in names:
            if names.count(name) > 1:
                raise PackValidationError(
                    f"pack {self.name!r}: duplicate phase name {name!r}")

    @property
    def total_duration_s(self) -> float:
        """Sum of the phase durations (the last phase also extends past it)."""
        return sum(phase.duration_s for phase in self.phases)

    def phase_starts(self) -> tuple[float, ...]:
        """Absolute virtual-time start of every phase."""
        starts: list[float] = []
        clock = 0.0
        for phase in self.phases:
            starts.append(clock)
            clock += phase.duration_s
        return tuple(starts)

    def phase_bounds(self) -> tuple[tuple[float, float], ...]:
        """(start, end) of every phase; the final end is ``inf`` (a stream
        that outlives the pack stays in its last phase)."""
        starts = self.phase_starts()
        bounds = [(starts[index], starts[index + 1])
                  for index in range(len(starts) - 1)]
        bounds.append((starts[-1], math.inf))
        return tuple(bounds)

    def eventual_delivery_holds(self) -> bool:
        """False if the *final* phase silences links forever (its faults have
        no end time); such a pack is only admissible in non-decision runs."""
        last = self.phases[-1]
        return last.partition_split is None and last.drop_rate < 1.0


# ---------------------------------------------------------------------------
# loader / validator
# ---------------------------------------------------------------------------

def pack_from_dict(data: Mapping[str, Any]) -> ScenarioPack:
    """Validate a pack dict into a :class:`ScenarioPack` (loudly).

    Rejects unknown keys at both levels, missing required fields,
    non-numeric values, overlapping/gapped explicit ``start_s`` values and
    every per-field constraint of :class:`ScenarioPhase` -- always naming
    the offending field and phase.
    """
    if not isinstance(data, Mapping):
        raise PackValidationError(
            f"a scenario pack must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - _PACK_KEYS)
    if unknown:
        raise PackValidationError(
            f"unknown pack key(s) {unknown}; allowed: {sorted(_PACK_KEYS)}")
    for required in ("name", "description", "phases"):
        if required not in data:
            raise PackValidationError(f"pack is missing required "
                                      f"key {required!r}")
    raw_phases = data["phases"]
    if not isinstance(raw_phases, (list, tuple)) or not raw_phases:
        raise PackValidationError(
            f"pack {data['name']!r}: phases must be a non-empty list")
    phases: list[ScenarioPhase] = []
    clock = 0.0
    for position, raw in enumerate(raw_phases):
        context = f"pack {data['name']!r} phase[{position}]"
        if not isinstance(raw, Mapping):
            raise PackValidationError(
                f"{context}: must be a mapping, got {type(raw).__name__}")
        unknown = sorted(set(raw) - _PHASE_KEYS)
        if unknown:
            raise PackValidationError(
                f"{context}: unknown key(s) {unknown}; "
                f"allowed: {sorted(_PHASE_KEYS)}")
        for required in ("name", "duration_s"):
            if required not in raw:
                raise PackValidationError(
                    f"{context}: missing required key {required!r}")
        if "start_s" in raw:
            start = _require_number(raw["start_s"], "start_s", context)
            if start < clock - 1e-9:
                raise PackValidationError(
                    f"{context}: start_s={start} overlaps the previous "
                    f"phase (expected {clock})")
            if start > clock + 1e-9:
                raise PackValidationError(
                    f"{context}: start_s={start} leaves a gap after the "
                    f"previous phase (expected {clock})")
        fields: dict[str, Any] = {"name": raw["name"]}
        for field_name in ("duration_s", "drop_rate", "duplicate_rate",
                           "reorder_jitter_s", "extra_latency_s",
                           "jitter_scale", "partition_split"):
            if field_name in raw:
                value = raw[field_name]
                if field_name == "partition_split" and value is None:
                    continue
                fields[field_name] = _require_number(value, field_name,
                                                     context)
        if "degraded" in raw and raw["degraded"] is not None:
            if not isinstance(raw["degraded"], bool):
                raise PackValidationError(
                    f"{context}: degraded must be a boolean, "
                    f"got {raw['degraded']!r}")
            fields["degraded"] = raw["degraded"]
        phases.append(ScenarioPhase(**fields))
        clock += phases[-1].duration_s
    return ScenarioPack(name=data["name"], description=data["description"],
                        phases=tuple(phases))


def available_packs() -> tuple[str, ...]:
    """Names of the shipped scenario packs, sorted."""
    return tuple(sorted(path.stem for path in PACKS_DIR.glob("*.json")))


def load_pack(name_or_path: str) -> ScenarioPack:
    """Load a shipped pack by name, or any pack from a ``.json`` path.

    Shipped packs must carry a ``name`` matching their filename (the
    catalogue stays greppable); malformed JSON or schema violations raise
    :class:`PackValidationError` naming the file and field.
    """
    shipped = PACKS_DIR / f"{name_or_path}.json"
    if shipped.is_file():
        path = shipped
    elif Path(name_or_path).is_file():
        path = Path(name_or_path)
    else:
        raise PackValidationError(
            f"unknown scenario pack {name_or_path!r}; shipped packs: "
            f"{list(available_packs())} (or pass a .json path)")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise PackValidationError(f"{path}: not valid JSON ({error})") from None
    pack = pack_from_dict(data)
    if path.parent == PACKS_DIR and pack.name != path.stem:
        raise PackValidationError(
            f"{path.name}: pack name {pack.name!r} must match the filename")
    return pack


# ---------------------------------------------------------------------------
# controller
# ---------------------------------------------------------------------------

class ScenarioController:
    """Applies a pack's phases to a live deployment from simulator time.

    ``install()`` applies phase 0 synchronously and schedules one simulator
    event per later phase boundary; each boundary retires the previous
    phase's faults through the adversary's remove APIs, installs the new
    phase's, and points the shared delay model at the phase's latency
    overrides.  Boundary callbacks draw no randomness, so the surrounding
    delivery RNG stream is untouched; a single-phase no-op pack schedules
    nothing at all and leaves the run bit-identical to a scenario-free one.

    The controller also snapshots the network trace's adversary-drop counter
    at every phase entry, which is what turns the post-run epoch records
    into per-phase summaries (:meth:`phase_records`).
    """

    def __init__(self, pack: ScenarioPack, deployment: Any) -> None:
        self.pack = pack
        self.deployment = deployment
        self._base_jitter_s = deployment.adversary.delay_model.base_jitter_s
        self._installed_faults: list[LinkFaultSpec] = []
        self._installed_partitions: list[PartitionSpec] = []
        self._entry_drops: dict[int, int] = {}

    def install(self) -> None:
        """Enter phase 0 now and schedule every later phase boundary."""
        self._enter_phase(0)
        starts = self.pack.phase_starts()
        for index in range(1, len(self.pack.phases)):
            self.deployment.sim.schedule_at(
                starts[index], lambda index=index: self._enter_phase(index))

    def _enter_phase(self, index: int) -> None:
        adversary = self.deployment.adversary
        for fault in self._installed_faults:
            adversary.remove_link_fault(fault)
        for partition in self._installed_partitions:
            adversary.remove_partition(partition)
        self._installed_faults = []
        self._installed_partitions = []
        phase = self.pack.phases[index]
        start_s, end_s = self.pack.phase_bounds()[index]
        fault = phase.link_fault(start_s, end_s)
        if fault is not None:
            adversary.add_link_fault(fault)
            self._installed_faults.append(fault)
        partition = phase.partition(start_s, end_s,
                                    sorted(self.deployment.nodes))
        if partition is not None:
            adversary.add_partition(partition)
            self._installed_partitions.append(partition)
        model = adversary.delay_model
        model.base_jitter_s = self._base_jitter_s * phase.jitter_scale
        model.base_extra_s = phase.extra_latency_s
        self._entry_drops[index] = \
            self.deployment.trace.total_adversary_drops

    def phase_records(self, per_epoch: Sequence[Any]) -> list[PhaseRecord]:
        """Per-phase summaries of a completed run's epoch records.

        Epochs are attributed to the phase containing their start time;
        throughput spans first-start to last-decide of the attributed epochs
        (boundary-robust); drop counts are deltas of the trace counter
        between phase entries.  Phases the stream never reached report zero
        epochs and zero drops.
        """
        total_drops = self.deployment.trace.total_adversary_drops
        records: list[PhaseRecord] = []
        for index, (phase, (start_s, end_s)) in enumerate(
                zip(self.pack.phases, self.pack.phase_bounds())):
            epochs = [record for record in per_epoch
                      if start_s <= record.start_s < end_s]
            committed = sum(record.committed_transactions
                            for record in epochs)
            throughput = 0.0
            p50 = 0.0
            if epochs:
                span = (max(record.decide_s for record in epochs)
                        - min(record.start_s for record in epochs))
                throughput = committed / span if span > 0 else 0.0
                p50 = percentile([record.latency_s for record in epochs],
                                 0.50)
            entry = self._entry_drops.get(index)
            exit_ = self._entry_drops.get(index + 1, total_drops)
            records.append(PhaseRecord(
                index=index, name=phase.name, start_s=start_s, end_s=end_s,
                degraded=phase.is_degraded, epochs=len(epochs),
                committed_transactions=committed, throughput_tps=throughput,
                p50_latency_s=p50,
                adversary_drops=(exit_ - entry) if entry is not None else 0))
        return records
