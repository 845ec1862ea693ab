"""Declarative experiment specifications for the paper's evaluation.

An :class:`ExperimentSpec` is the machine-readable manifest of one figure,
table or ablation: which cells (parameter dictionaries) it sweeps, which
function turns one cell into table rows, what the rows must look like, and
which paper claims the assembled table must satisfy.  Specs are pure data
plus references to module-level functions, so cells can be dispatched to
multiprocessing workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

#: column type tags accepted in :attr:`ExperimentSpec.schema`
SCHEMA_TYPES = ("str", "int", "float")

#: a cell function maps one parameter dictionary to a list of table rows
CellFn = Callable[[dict], list]
#: a check validates a paper claim over the fully assembled row list
CheckFn = Callable[[list], None]


class SpecError(ValueError):
    """Raised for malformed specs or rows that violate a spec's schema."""


def params_key(params: Mapping[str, Any]) -> str:
    """Canonical JSON key of one parameter cell.

    Deterministic across processes and runs (sorted keys, no whitespace
    variance), so it compares cells by value.
    """
    return json.dumps(dict(params), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ExperimentSpec:
    """One figure/table/ablation of the paper, as a declarative manifest.

    The spec separates *what* an experiment is (grid, bindings, schema,
    claims) from *how* it is executed (:mod:`repro.expts.runner`), so the
    same spec backs the ``scripts/run_experiments.py`` CLI and the
    ``RESULTS.md`` section.
    """

    #: stable identifier (``fig10a``, ``table1``, ...); the ``--only`` key
    spec_id: str
    #: paper cross-reference rendered in RESULTS.md (``Fig. 10a``)
    paper_anchor: str
    #: one-line table title (also the RESULTS.md section subtitle)
    title: str
    #: what the experiment shows, and the paper claims it reproduces
    description: str
    #: column names of the produced table
    headers: tuple
    #: per-column type tags (``str`` | ``int`` | ``float``), same arity as
    #: ``headers``; ``float`` columns may also hold ``None`` (rendered n/a)
    schema: tuple
    #: module-level function mapping one grid cell to one or more rows
    cell_fn: CellFn
    #: full parameter grid (tuple of JSON-stable dicts), in table row order
    grid: tuple
    #: ``--quick`` subsample of the grid (``None`` = quick runs the full grid)
    quick_grid: Optional[tuple] = None
    #: module-level validators of cross-row paper claims
    checks: tuple = ()
    #: declarative bindings (protocol / topology / workload / seeds) surfaced
    #: in RESULTS.json so a reader can see what a figure depends on without
    #: reading the cell function
    bindings: Mapping[str, str] = field(default_factory=dict)
    #: wall-clock budget for one cell, seconds: documentation, recorded in
    #: RESULTS.json; nothing enforces or warns on it
    cell_budget_s: float = 60.0

    def __post_init__(self) -> None:
        if not self.spec_id or any(c.isspace() for c in self.spec_id):
            raise SpecError(f"spec_id must be a non-empty token, got {self.spec_id!r}")
        if len(self.headers) != len(self.schema):
            raise SpecError(
                f"{self.spec_id}: schema arity {len(self.schema)} != "
                f"headers arity {len(self.headers)}")
        for tag in self.schema:
            if tag not in SCHEMA_TYPES:
                raise SpecError(f"{self.spec_id}: unknown schema tag {tag!r}; "
                                f"known: {SCHEMA_TYPES}")
        if not self.grid:
            raise SpecError(f"{self.spec_id}: empty parameter grid")
        full_keys = {params_key(params) for params in self.grid}
        if len(full_keys) != len(self.grid):
            raise SpecError(f"{self.spec_id}: duplicate cells in grid")
        if self.quick_grid is not None:
            for params in self.quick_grid:
                if params_key(params) not in full_keys:
                    raise SpecError(
                        f"{self.spec_id}: quick cell {params!r} is not a cell "
                        f"of the full grid")

    # ------------------------------------------------------------------ cells
    def cells(self, quick: bool = False) -> tuple:
        """The parameter cells executed in ``quick`` or full mode."""
        if quick and self.quick_grid is not None:
            return self.quick_grid
        return self.grid

    def cell_ids(self, quick: bool = False) -> list:
        """Human-readable identifiers of the selected cells (``--list``)."""
        return [self._cell_id(params) for params in self.cells(quick)]

    def _cell_id(self, params: Mapping[str, Any]) -> str:
        if not params:
            return "all"
        return "-".join(str(value) for value in params.values())

    # ----------------------------------------------------------------- schema
    def validate_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Check rows against the declared schema; raise :class:`SpecError`.

        ``int`` cells are accepted where ``float`` is declared (JSON does not
        distinguish them); ``None`` is accepted for ``float`` columns only
        (a timed-out latency sample, rendered as ``n/a``).
        """
        for row in rows:
            if len(row) != len(self.headers):
                raise SpecError(
                    f"{self.spec_id}: row arity {len(row)} != "
                    f"headers arity {len(self.headers)}: {row!r}")
            for tag, cell in zip(self.schema, row):
                if tag == "str" and not isinstance(cell, str):
                    raise SpecError(f"{self.spec_id}: expected str, got "
                                    f"{cell!r} in row {row!r}")
                if tag == "int" and (isinstance(cell, bool)
                                     or not isinstance(cell, int)):
                    raise SpecError(f"{self.spec_id}: expected int, got "
                                    f"{cell!r} in row {row!r}")
                if tag == "float" and cell is not None and (
                        isinstance(cell, bool)
                        or not isinstance(cell, (int, float))):
                    raise SpecError(f"{self.spec_id}: expected float/None, got "
                                    f"{cell!r} in row {row!r}")

    def run_checks(self, rows: list) -> None:
        """Run every registered paper-claim check against ``rows``.

        Checks raise ``AssertionError`` (or any exception) on violation; the
        runner converts that into a failed experiment, so a regression in a
        reproduced claim fails ``scripts/run_experiments.py`` and the
        standalone benchmark alike.
        """
        for check in self.checks:
            check(rows)

    def to_manifest(self) -> dict:
        """The declarative portion of the spec (no callables), for artifacts."""
        return {
            "spec_id": self.spec_id,
            "paper_anchor": self.paper_anchor,
            "title": self.title,
            "description": self.description,
            "headers": list(self.headers),
            "schema": list(self.schema),
            "bindings": dict(self.bindings),
            "num_cells": len(self.grid),
            "num_quick_cells": len(self.cells(quick=True)),
            "checks": [check.__name__ for check in self.checks],
            "cell_budget_s": self.cell_budget_s,
        }
