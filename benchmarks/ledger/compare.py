#!/usr/bin/env python3
"""Compare two ledger result files: ``compare.py [--same-code] A.json B.json``.

One row per workload x end-to-end metric: both values, the ratio B/A (base =
A), the bound from BENCHMARK.json and a verdict:

* ``same``       -- B is within the bound of A;
* ``improved`` / ``regressed`` -- B is better / worse than A by more than the
  bound;
* ``unresolved`` -- the files' own spread exceeds the bound, so the data
  cannot tell.  The spread of a metric is the interquartile range of its
  per-pass samples over their median, divided by the square root of the
  sample count: roughly the standard error of the reported median.

``virt.*`` metrics and counts are pure functions of (code, seed): between two
commits a differing ``virt_fingerprint`` is reported as "model changed" beside
the host-time rows; with ``--same-code`` (two runs of one commit) every
``virt.*`` metric, every count and the fingerprint must be *equal*, and the
exit code is 1 when any is not or any host-time row regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spread(samples: list) -> float:
    """Standard-error-like spread of the median of ``samples`` (0 if < 2)."""
    if len(samples) < 2:
        return 0.0
    quartiles = statistics.quantiles(samples, n=4)
    return ((quartiles[2] - quartiles[0]) / statistics.median(samples)
            / math.sqrt(len(samples)))


def verdict(a: float, b: float, better: str, bound: float,
            spread_a: float = 0.0, spread_b: float = 0.0) -> str:
    """``same`` / ``improved`` / ``regressed`` / ``unresolved`` for one row."""
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    if a == b:
        return "same"
    if not a:
        return "unresolved"  # no base to take a ratio against
    change = (b - a) / abs(a)
    if better == "higher":
        change = -change
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "same"


def exact_names(contract: dict) -> list:
    """Metrics that repeat exactly for one (code, seed): virtual time, counts."""
    return [entry["name"]
            for section in ("end_to_end", "per_layer")
            for entry in contract[section]
            if "virt" in entry["unit"] or entry["unit"] in ("count", "bytes")]


def compare(a: dict, b: dict, contract: dict) -> tuple:
    """(rows, differences): verdict rows and the exact metrics that differ."""
    rows, differences = [], []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        row_a, row_b = a["workloads"][workload], b["workloads"][workload]
        if row_a["virt_fingerprint"] != row_b["virt_fingerprint"]:
            differences.append((workload, "virt_fingerprint",
                                row_a["virt_fingerprint"][:12],
                                row_b["virt_fingerprint"][:12]))
        model = ""
        if row_a["virt_fingerprint"] != row_b["virt_fingerprint"]:
            model = "model changed" if a["seed"] == b["seed"] \
                else "different seeds"
        for entry in contract["end_to_end"]:
            name = entry["name"]
            if name not in row_a["metrics"] or name not in row_b["metrics"]:
                continue
            value_a = row_a["metrics"][name]["value"]
            value_b = row_b["metrics"][name]["value"]
            rows.append({
                "workload": workload, "metric": name, "a": value_a,
                "b": value_b, "ratio": value_b / value_a if value_a else 0.0,
                "bound": entry["bound"], "note": model,
                "verdict": verdict(
                    value_a, value_b, entry["better"], entry["bound"],
                    spread(row_a["samples"].get(name, [])),
                    spread(row_b["samples"].get(name, [])))})
        for name in exact_names(contract):
            value_a = row_a["metrics"].get(name, {}).get("value")
            value_b = row_b["metrics"].get(name, {}).get("value")
            if value_a != value_b:
                differences.append((workload, name, value_a, value_b))
    return rows, differences


def render(rows: list, differences: list) -> str:
    lines = [f"{'workload':22s} {'metric':20s} {'A':>12s} {'B':>12s} "
             f"{'B/A':>7s} {'bound':>6s}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:22s} {row['metric']:20s} {row['a']:12.5g} "
            f"{row['b']:12.5g} {row['ratio']:7.3f} {row['bound']:6.2f}  "
            f"{row['verdict']}{'  (' + row['note'] + ')' if row['note'] else ''}")
    if differences:
        lines.append("exact metrics that differ (virt.*, counts, fingerprint):")
        lines += [f"  {workload:22s} {name:34s} A={value_a} B={value_b}"
                  for workload, name, value_a, value_b in differences]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--same-code", action="store_true",
                        help="A and B are runs of one commit: exact metrics "
                             "must be equal (exit 1 otherwise)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    with open(args.a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        b = json.load(handle)
    rows, differences = compare(a, b, contract)
    print(render(rows, differences))
    regressed = any(row["verdict"] == "regressed" for row in rows)
    return 1 if regressed or (args.same_code and differences) else 0


if __name__ == "__main__":
    sys.exit(main())
