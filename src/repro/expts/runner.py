"""Experiment runner: cached, parallel execution of registered specs.

Execution discipline (what makes ``RESULTS.json`` byte-reproducible):

* every cell is a pure function of ``(spec id, params)`` -- cell functions
  derive all randomness from seeds carried in the params or fixed in the
  spec, and report only simulated metrics (virtual time, byte counts,
  analytic model values), never wall-clock measurements;
* cells are dispatched to worker processes but reassembled in grid order,
  so worker count and scheduling cannot reorder rows;
* per-cell results are cached on disk keyed by
  ``(spec id, params, code fingerprint)`` -- any change to ``src/repro``
  invalidates the cache, so stale rows can never leak into a report.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.expts import registry
from repro.expts.specs import ExperimentSpec, params_key

#: default on-disk cache location, resolved relative to the repo root
CACHE_DIR_NAME = os.path.join("benchmarks", "results", "cache")

_FINGERPRINT_CACHE: "dict[str, str]" = {}


def _package_root() -> str:
    """Directory of the ``repro`` package sources (fingerprint domain)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def repo_root() -> str:
    """The repository root (two levels above ``src/repro``)."""
    return os.path.dirname(os.path.dirname(_package_root()))


def code_fingerprint(root: Optional[str] = None) -> str:
    """Stable hex fingerprint of every ``.py`` file under ``src/repro``.

    Any source change -- including to this module -- changes the
    fingerprint, which keys the result cache: experiment rows computed by
    old code are never reused after an edit.  Deterministic across
    processes and machines (sorted relative paths, content CRCs).
    """
    root = root or _package_root()
    cached = _FINGERPRINT_CACHE.get(root)
    if cached is not None:
        return cached
    entries = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                crc = zlib.crc32(handle.read())
            entries.append((os.path.relpath(path, root), crc))
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()[:16]
    _FINGERPRINT_CACHE[root] = digest
    return digest


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------

class ResultsCache:
    """Per-cell JSON cache under ``benchmarks/results/cache/``.

    One file per ``(spec id, params, fingerprint)`` key; a corrupt or
    unreadable entry behaves like a miss (the cell is recomputed and the
    entry rewritten).
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or os.path.join(repo_root(), CACHE_DIR_NAME)

    def key(self, spec_id: str, params: dict, fingerprint: str) -> str:
        """Content key of one cell result."""
        payload = json.dumps(
            {"spec": spec_id, "params": dict(params), "code": fingerprint},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[list]:
        """Cached rows for ``key``, or None on miss/corruption."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            return entry["rows"]
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, spec_id: str, params: dict, fingerprint: str,
            rows: list) -> None:
        """Persist one cell result (atomic rename; concurrent-writer safe)."""
        os.makedirs(self.directory, exist_ok=True)
        entry = {"spec_id": spec_id, "params": dict(params),
                 "code_fingerprint": fingerprint, "rows": rows}
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, sort_keys=True)
        os.replace(tmp, path)


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
    #: number of cells answered from the disk cache (console metadata only --
    #: deliberately excluded from RESULTS.json, which must not depend on
    #: cache state)
    cached_cells: int = 0

    @property
    def rows(self) -> list:
        """All rows, flattened in grid order."""
        return [row for rows in self.cell_rows for row in rows]

    def to_json(self) -> dict:
        """JSON-stable section for ``RESULTS.json`` (no wall-clock, no cache
        state, NaN coerced to None)."""
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


def run_spec(spec: ExperimentSpec, quick: bool = False,
             cache: Optional[ResultsCache] = None, use_cache: bool = True,
             fingerprint: Optional[str] = None) -> ExperimentResult:
    """Run one spec serially (cache-backed) and validate its paper claims.

    This is the entry point ``benchmarks/bench_figures.py`` uses; the
    CLI driver uses :func:`run_experiments`, which shares one worker pool
    across specs.
    """
    result = run_experiments([spec], quick=quick, workers=1, cache=cache,
                             use_cache=use_cache, fingerprint=fingerprint)[0]
    return result


def run_experiments(specs: Iterable[ExperimentSpec], quick: bool = True,
                    workers: int = 1, cache: Optional[ResultsCache] = None,
                    use_cache: bool = True,
                    fingerprint: Optional[str] = None) -> list:
    """Run ``specs`` and return one :class:`ExperimentResult` per spec.

    ``workers > 1`` dispatches uncached cells of *all* specs to one
    multiprocessing pool; results are reassembled in grid order, so the
    output is identical for any worker count.  Workers resolve specs by id
    through the registry, so only *registered* specs parallelise -- cells of
    ad-hoc (unregistered) specs transparently run in-process instead.
    ``use_cache=False`` ignores the disk cache for reading but still writes
    fresh entries.  Paper-claim checks run on the assembled rows; a failing
    check raises.  Refuses to run under ``python -O``, which strips the
    ``assert`` statements the checks are written in.
    """
    if not __debug__:
        raise RuntimeError(
            "run_experiments: python -O strips the assert statements of the "
            "paper-claim checks, so every claim would pass unchecked; run "
            "without -O")
    specs = list(specs)
    cache = cache or ResultsCache()
    fingerprint = fingerprint or code_fingerprint()

    # Plan: resolve every cell through the cache, collect the misses.
    plan = []  # [spec_index, cell_index, spec, params, cache_key, rows|None]
    for spec_index, spec in enumerate(specs):
        for cell_index, params in enumerate(spec.cells(quick)):
            key = cache.key(spec.spec_id, params, fingerprint)
            rows = cache.get(key) if use_cache else None
            plan.append([spec_index, cell_index, spec, params, key, rows])

    misses = [item for item in plan if item[5] is None]
    miss_ids = {id(item) for item in misses}
    if misses:
        pooled = [item for item in misses if _pool_resolvable(item[2])] \
            if workers > 1 else []
        inline = [item for item in misses if id(item) not in
                  {id(pool_item) for pool_item in pooled}]
        if len(pooled) > 1:
            tasks = [(item[2].spec_id, item[3]) for item in pooled]
            with multiprocessing.Pool(processes=min(workers, len(tasks)),
                                      initializer=_pool_initializer) as pool:
                for item, rows in zip(pooled, pool.map(_cell_worker, tasks)):
                    item[5] = rows
        else:
            inline = misses
        for item in inline:
            item[5] = _execute_cell(item[2], item[3])
        for item in misses:
            cache.put(item[4], item[2].spec_id, item[3], fingerprint, item[5])

    results = []
    for spec_index, spec in enumerate(specs):
        cell_rows = [item[5] for item in plan if item[0] == spec_index]
        spec.validate_rows([row for rows in cell_rows for row in rows])
        result = ExperimentResult(
            spec=spec, cell_rows=cell_rows, quick=quick,
            cached_cells=sum(1 for item in plan
                             if item[0] == spec_index
                             and id(item) not in miss_ids))
        spec.run_checks(result.rows)
        results.append(result)
    return results
