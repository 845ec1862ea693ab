"""Experiment runner: parallel execution of registered specs.

Execution discipline (what makes ``RESULTS.json`` byte-reproducible):

* every cell is a pure function of ``(spec id, params)`` -- cell functions
  derive all randomness from seeds carried in the params or fixed in the
  spec, and report only simulated metrics (virtual time, byte counts,
  analytic model values), never wall-clock measurements;
* cells are dispatched to worker processes but reassembled in grid order,
  so worker count and scheduling cannot reorder rows;
* every row is computed fresh: nothing is read back from an earlier run.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.expts import registry
from repro.expts.specs import ExperimentSpec


def _package_root() -> str:
    """Directory of the ``repro`` package sources (fingerprint domain)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def repo_root() -> str:
    """The repository root (two levels above ``src/repro``)."""
    return os.path.dirname(os.path.dirname(_package_root()))


def code_fingerprint(root: Optional[str] = None) -> str:
    """Stable hex fingerprint of every file under ``src/repro``.

    The provenance line of ``RESULTS.json`` / ``RESULTS.md``: any edit to
    the package -- a module or a data file such as a scenario pack --
    changes it.  ``__pycache__`` directories are skipped.  Deterministic
    across processes and machines (sorted relative paths, content CRCs).
    """
    root = root or _package_root()
    entries = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                crc = zlib.crc32(handle.read())
            entries.append((os.path.relpath(path, root), crc))
    return hashlib.sha256(repr(entries).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    """Rows and metadata of one executed spec."""

    spec: ExperimentSpec
    #: rows per grid cell, aligned with ``spec.cells(quick)`` order
    cell_rows: list = field(default_factory=list)
    quick: bool = False

    @property
    def rows(self) -> list:
        """All rows, flattened in grid order."""
        return [row for rows in self.cell_rows for row in rows]

    def to_json(self) -> dict:
        """JSON-stable section for ``RESULTS.json`` (no wall-clock, NaN
        coerced to None)."""
        manifest = self.spec.to_manifest()
        return {
            "spec": manifest,
            "quick": self.quick,
            "cells": [
                {"params": dict(params), "rows": _sanitize_rows(rows)}
                for params, rows in zip(self.spec.cells(self.quick),
                                        self.cell_rows)
            ],
        }


def _sanitize_rows(rows: Sequence[Sequence[Any]]) -> list:
    """NaN is not valid JSON; coerce it to None (rendered as ``n/a``)."""
    sanitized = []
    for row in rows:
        sanitized.append([
            None if isinstance(cell, float) and cell != cell else cell
            for cell in row])
    return sanitized


def _execute_cell(spec: ExperimentSpec, params: dict) -> list:
    """Run one cell in-process and validate its rows against the schema."""
    rows = spec.cell_fn(dict(params))
    spec.validate_rows(rows)
    return rows


def _cell_worker(task: tuple) -> list:
    """Pool worker: resolve the spec through the registry and run one cell."""
    spec_id, params = task
    return _execute_cell(registry.get(spec_id), params)


def _pool_resolvable(spec: ExperimentSpec) -> bool:
    """Whether a worker process can resolve ``spec`` through the registry.

    Ad-hoc specs (tests, exploratory scripts) are not registered, so their
    cells must run in-process; registered specs dispatch to the pool.
    """
    try:
        return registry.get(spec.spec_id) is spec
    except (KeyError, RuntimeError):
        return False


def _pool_initializer() -> None:
    registry.ensure_loaded()


def run_experiments(specs: Iterable[ExperimentSpec], quick: bool = True,
                    workers: int = 1) -> list:
    """Run ``specs`` and return one :class:`ExperimentResult` per spec.

    ``workers > 1`` dispatches the cells of *all* specs to one
    multiprocessing pool; results are reassembled in grid order, so the
    output is identical for any worker count.  Workers resolve specs by id
    through the registry, so only *registered* specs parallelise -- cells of
    ad-hoc (unregistered) specs transparently run in-process instead.
    Paper-claim checks run on the assembled rows; a failing check raises.
    Refuses to run under ``python -O``, which strips the ``assert``
    statements the checks are written in.
    """
    if not __debug__:
        raise RuntimeError(
            "run_experiments: python -O strips the assert statements of the "
            "paper-claim checks, so every claim would pass unchecked; run "
            "without -O")
    specs = list(specs)
    cells = [(spec, params) for spec in specs for params in spec.cells(quick)]
    rows = [None] * len(cells)
    pooled = [index for index, (spec, _) in enumerate(cells)
              if workers > 1 and _pool_resolvable(spec)]
    if len(pooled) > 1:
        tasks = [(cells[index][0].spec_id, cells[index][1])
                 for index in pooled]
        with multiprocessing.Pool(processes=min(workers, len(tasks)),
                                  initializer=_pool_initializer) as pool:
            for index, cell_rows in zip(pooled, pool.map(_cell_worker, tasks)):
                rows[index] = cell_rows
    for index, (spec, params) in enumerate(cells):
        if rows[index] is None:
            rows[index] = _execute_cell(spec, params)

    results = []
    start = 0
    for spec in specs:
        end = start + len(spec.cells(quick))
        result = ExperimentResult(spec=spec, cell_rows=rows[start:end],
                                  quick=quick)
        spec.run_checks(result.rows)
        results.append(result)
        start = end
    return results
