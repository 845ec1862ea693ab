"""Report formatting for the figure/table reproduction benchmarks.

The benchmark harness under ``benchmarks/`` prints paper-style rows (one per
protocol / parallelism level / curve) so that a run's output can be compared
against the paper's figures at a glance; the same rows, rendered as markdown
tables, make up RESULTS.md.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence


def improvement_percent(baseline: float, improved: float) -> float:
    """Relative improvement of ``improved`` over ``baseline`` in percent.

    For latency-like metrics (lower is better) this is the reduction
    percentage the paper quotes ("latency is reduced by 48% to 59%").
    """
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline


def increase_percent(baseline: float, improved: float) -> float:
    """Relative increase of ``improved`` over ``baseline`` in percent.

    For throughput-like metrics (higher is better): "throughput increased by
    48% to 62%".
    """
    if baseline == 0:
        return 0.0
    return 100.0 * (improved - baseline) / baseline


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """Render a plain-text table (used by benchmark ``--benchmark-only`` output)."""
    rendered_rows, widths = _rendered(headers, rows)
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(_padded(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(_padded(row, widths)))
    return "\n".join(lines)


def markdown_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                   align_padding: bool = True) -> str:
    """Render a GitHub-flavoured markdown pipe table.

    Cells are formatted like :func:`format_table` (floats to two decimals,
    NaN and ``None`` as ``n/a``); with ``align_padding`` every column is
    padded to its widest cell so the raw markdown stays readable in diffs.
    Used by the ``RESULTS.md`` generator (:mod:`repro.expts.report`).
    """
    rendered_rows, widths = _rendered(headers, rows, align_padding)
    lines = ["| " + " | ".join(_padded(headers, widths)) + " |",
             "| " + " | ".join("-" * width for width in widths) + " |"]
    for row in rendered_rows:
        lines.append("| " + " | ".join(_padded(row, widths)) + " |")
    return "\n".join(lines)


def _rendered(headers: Sequence[str], rows: Iterable[Sequence[Any]],
              pad: bool = True) -> tuple[list[list[str]], list[int]]:
    """The rows' cells formatted, and each header's column width: the widest
    of the header and its column's cells (the header alone without ``pad``)."""
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    if pad:
        for row in rendered_rows:
            for index, cell in enumerate(row[:len(widths)]):
                widths[index] = max(widths[index], len(cell))
    return rendered_rows, widths


def _padded(cells: Sequence[str], widths: Sequence[int]) -> list[str]:
    """Each cell padded to its column's width; cells past the last header
    (a row longer than the headers) go unpadded."""
    return [cell.ljust(widths[index]) if index < len(widths) else cell
            for index, cell in enumerate(cells)]


def _fmt(cell: Any) -> str:
    # Empty latency samples (every run timed out) surface as NaN in
    # summaries -- or as None once sanitised for JSON; a table cell reading
    # "nan"/"None" looks like a bug, so render the absence explicitly.
    if cell is None:
        return "n/a"
    if isinstance(cell, float):
        if math.isnan(cell):
            return "n/a"
        return f"{cell:.2f}"
    return str(cell)
