#!/usr/bin/env python3
"""The layered performance ledger: run workloads, check outputs, print metrics.

Two ways in, one code path::

    # the benchmark contract: one workload, one trace mode, result on the
    # last line of stdout
    python3 benchmarks/ledger/run.py --workload stream-n4 --seed 7000 \\
        --seconds 10 --trace 0

    # the ledger: every workload, timed and traced, JSON + summary.txt
    python3 benchmarks/ledger/run.py --out /tmp/ledger/A.json

Every number names its clock.  *Host* time (``wall_s``, ``cpu_s``,
``setup_s``, every ``*.self_s``) is what the researcher waits for, in
reference-speed seconds: each pass is bracketed by a calibration loop and
divided by how slow the host was around it (see ``calibrate``).  *Virtual*
time (``virt.*``) is what the modelled wireless deployment would take; it is
a pure function of ``(arguments, seed)`` and repeats exactly.

Run protocol (README.md has the reasons).  This process only orchestrates:
each measurement happens in a fresh child with ``PYTHONHASHSEED=0``.

* **timed** child -- set-up (import ``repro``, one untimed pass of the
  workload's cells on seed ``S-1``), then tracing off: one pass per seed
  ``S, S+1, ...`` until ``--seconds`` have elapsed and at least
  ``MIN_SEEDS`` passes are done.  Seeds never repeat inside a process,
  because the process-wide verification memo answers a repeated seed from
  cache.  Host-time metrics are medians over all passes; ``virt.*`` and the
  fingerprint use the first ``MIN_SEEDS`` passes only, so they do not depend
  on how fast the host is.
* **set-up** children (``--trace 0``) -- set-up only, twice more;
  ``setup_s`` is the median of the three.
* **traced** child (``--trace 1``) -- set-up, then seed ``S`` with the
  wrappers of ``tracer.py`` installed.  Its result dataclasses must equal
  the timed child's for seed ``S`` or the run is incorrect.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # the child's first line: set-up is timed from here

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: every workload sees at least this many distinct seeds; ``virt.*`` metrics
#: and ``virt_fingerprint`` are computed over exactly this many
MIN_SEEDS = 4
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
#: the calibration loop (see ``calibrate``) and what it takes on the
#: reference box at full speed; host times are divided by measured / reference
CALIBRATION_ROUNDS = 900
REFERENCE_CALIBRATION_S = 0.1
_P = 105216956437749856470442369914846542332764088290024751311797079457000279170143
_E = (_P - 1) // 2 - 12345
LAYERS = ("crypto", "components", "core", "net", "protocols", "testbed")
#: the paper's claim printed beside ``virt.batching_latency_reduction``
PAPER_CLAIM = "the paper reports 52-69% lower latency with ConsensusBatcher"


class LedgerError(RuntimeError):
    """The benchmark cannot vouch for its numbers; the name says why."""


class SourceTreeMissing(LedgerError):
    pass


class BackendNotPure(LedgerError):
    pass


class DealerCacheOnDisk(LedgerError):
    pass


class ChildFailed(LedgerError):
    pass


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# child side: set-up, timed pass, traced pass
# ---------------------------------------------------------------------------

def check_environment() -> None:
    """Abort unless the numbers would measure the pure-Python program."""
    from repro.crypto.backend import backend_info, current_mode
    from repro.testbed import dealer_cache

    if current_mode() != "pure":
        raise BackendNotPure(
            f"REPRO_CRYPTO_BACKEND resolves to {current_mode()!r}; the ledger "
            f"measures the pure backend only ({backend_info()})")
    if dealer_cache.DEFAULT_DEALER_CACHE.use_disk:
        raise DealerCacheOnDisk(
            "DEFAULT_DEALER_CACHE.use_disk is still true: a run would read "
            "or write benchmarks/results/dealer_cache/")


def set_up(workload: str, seed: int, traced: bool = False) -> tuple:
    """The set-up phase: import, pin, build the cells, warm every cell once.

    The warm-up pass runs on seed ``S-1``: it fills fixed-base tables, the
    ``hash_to_group``/Lagrange memos and lazy imports, but produces no
    transcript the timed seeds will produce.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SourceTreeMissing(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from repro.crypto.backend import backend_info
    from repro.testbed import dealer_cache

    dealer_cache.DEFAULT_DEALER_CACHE.use_disk = False
    check_environment()
    cells = workloads.build(workload, traced=traced)
    for cell in cells:
        cell.run(seed - 1)
    return cells, backend_info()


def run_cell(cell, seed: int, call=None) -> dict:
    """One entry-point call: host cost, verdict, fingerprint, facts."""
    import workloads

    check_environment()
    before = os.times()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        result = cell.run(seed) if call is None else call(cell, seed)
        problem = workloads.failure(result)
    except Exception as exc:  # a raising entry point is a failed operation
        result, problem = None, f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    after = os.times()
    # process_time is this process only; reaped children (the sharded
    # workload's forked workers) are in os.times()
    cpu += (after.children_user - before.children_user
            + after.children_system - before.children_system)
    record = {"wall_s": wall, "cpu_s": cpu, "failure": problem}
    if result is not None:
        text = workloads.canonical(result)
        record["fingerprint"] = hashlib.sha256(text.encode()).hexdigest()
        record["facts"] = workloads.facts(result)
    return record


def calibrate() -> tuple:
    """How slow this host is right now: (wall, cpu) of a fixed loop, as a
    multiple of ``REFERENCE_CALIBRATION_S``.

    The reference VM's speed wanders by 1.4-1.7x for tens of seconds at a
    time -- longer than a run -- so raw seconds compare hosts' moods, not
    commits.  The loop is shaped like the simulator (256-bit modular powers
    plus dict traffic); bracketing every pass with it and dividing removes
    about two thirds of that noise (README.md, "Two clocks").
    """
    cpu = time.process_time()
    start = time.perf_counter()
    x, table = 3, {}
    for i in range(CALIBRATION_ROUNDS):
        x = pow(x, _E, _P)
        for j in range(24):
            table[(i + j) & 255] = x ^ j
    return ((time.perf_counter() - start) / REFERENCE_CALIBRATION_S,
            (time.process_time() - cpu) / REFERENCE_CALIBRATION_S)


def run_pass(cells, seed: int, call=None) -> dict:
    """Every cell once on ``seed``; times in reference-speed seconds."""
    before = calibrate()
    records = {cell.name: run_cell(cell, seed, call) for cell in cells}
    after = calibrate()
    slow_wall, slow_cpu = ((b + a) / 2 for b, a in zip(before, after))
    for record in records.values():
        record["wall_s"] /= slow_wall
        record["cpu_s"] /= slow_cpu
    return {"seed": seed, "cells": records, "host_slowdown": slow_wall}


def timed_passes(cells, seed: int, seconds: float) -> list:
    """Tracing off: one pass per distinct seed until the time is spent."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_SEEDS or time.perf_counter() - start < seconds:
        passes.append(run_pass(cells, seed + len(passes)))
    return passes


def traced_pass(cells, seed: int, spans_out: str = "") -> tuple:
    """Seed ``S`` with every wrap point installed; returns (pass, trace)."""
    from repro.testbed.sharding import merge_traces
    from tracer import REPRO_WRAP_POINTS, Tracer

    tracer = Tracer(keep_spans=bool(spans_out))

    def call(cell, cell_seed):
        return tracer.call("testbed", "harness", f"{cell.name}@{cell_seed}",
                           cell.run, cell_seed)

    with tracer.installed(REPRO_WRAP_POINTS):
        traced = run_pass(cells, seed, call)
    if spans_out:
        tracer.dump_spans(spans_out)
    captured = tracer.captured.get("build_deployment", [])
    # build_shard_deployment returns (deployment, backbone, macs)
    shard_events = [item[0].sim.events_processed for item in captured
                    if isinstance(item, tuple)]
    deployments = [item[0] if isinstance(item, tuple) else item
                   for item in captured]
    net = merge_traces([deployment.trace for deployment in deployments])
    channels = list(net.channels.values())
    nodes = list(net.nodes.values())
    slow = traced["host_slowdown"]
    trace = {
        "groups": {f"{layer}.{group}": {"calls": t.calls,
                                        "self_s": t.self_s / slow}
                   for (layer, group), t in tracer.totals().items()},
        "layers": {layer: {"calls": t.calls, "self_s": t.self_s / slow}
                   for layer, t in tracer.layer_totals().items()},
        "sim_events": sum(deployment.sim.events_processed
                          for deployment in deployments),
        # sharded only: how unevenly the event load split across shards
        "event_imbalance": max(shard_events) / statistics.fmean(shard_events)
        if shard_events else 0.0,
        "logical_messages_sent": sum(n.logical_messages_sent for n in nodes),
        "frames_sent": net.total_frames_sent,
        "channel_accesses": net.total_channel_accesses,
        "bytes_sent": net.total_bytes_sent,
        "transmissions": sum(c.transmissions for c in channels),
        "collisions": net.total_collisions,
        "channel_busy_virt_s": sum(c.busy_time for c in channels),
        "adversary_drops": net.total_adversary_drops,
    }
    return traced, trace


def describe(cells) -> list:
    """What the parent needs to know about each cell to aggregate its facts."""
    return [{"name": cell.name, "batched": cell.batched, "pair": cell.pair,
             "rate_tps": cell.rate_tps} for cell in cells]


def child_main(args) -> int:
    workload, seed = args.workload[0], args.seed
    cells, backend = set_up(workload, seed, traced=args.child == "traced")
    setup_raw = time.perf_counter() - _T0
    slow = (calibrate()[0] + calibrate()[0]) / 2
    report = {"workload": workload, "seed": seed, "backend": backend,
              "setup_s": setup_raw / slow, "setup_host_slowdown": slow,
              "cells": describe(cells)}
    if args.child == "timed":
        report["passes"] = timed_passes(cells, seed, args.seconds)
    elif args.child == "traced":
        traced, report["trace"] = traced_pass(cells, seed, args.spans_out)
        report["passes"] = [traced]
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    report["peak_rss_mb"] = max(usage) / 1024.0  # Linux reports KiB
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# parent side: spawn children, turn their reports into metrics
# ---------------------------------------------------------------------------

def spawn(mode: str, workload: str, seed: int, seconds: float,
          spans_out: str = "") -> dict:
    """Run one child to completion and parse the report on its last line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, os.path.abspath(__file__), "--child", mode,
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if spans_out:
        command += ["--spans-out", spans_out]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child of {workload} exceeded "
                          f"{CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise ChildFailed(f"{mode} child of {workload} exited with code "
                          f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def nearest_rank(sample: list, fraction: float) -> float:
    ordered = sorted(sample)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_total(one_pass: dict, key: str) -> float:
    return sum(cell[key] for cell in one_pass["cells"].values())


def virtual_metrics(timed: dict) -> dict:
    """``virt.*`` over the first MIN_SEEDS passes (0.0 = not applicable)."""
    passes = timed["passes"][:MIN_SEEDS]
    runs = [(spec, one_pass["cells"][spec["name"]]["facts"])
            for one_pass in passes for spec in timed["cells"]
            if "facts" in one_pass["cells"][spec["name"]]]
    by_cell: dict = {}
    for spec, facts in runs:
        by_cell.setdefault(spec["name"], []).extend(
            x for x in facts["latencies"]
            if x == x)  # NaN = timed out, already counted as failed
    sample = [x for values in by_cell.values() for x in values]
    metrics = {name: 0.0 for name in (
        "virt.latency_p50_s", "virt.latency_p90_s", "virt.tpm",
        "virt.slo_p90_s", "virt.slo_max_rate_tps",
        "virt.batching_latency_reduction")}
    if not sample:
        return metrics
    # cells differ by an order of magnitude (batched vs unbatched, RBC vs
    # ABA): a pooled median would only see the middle cell, so take each
    # cell's median and their geometric mean -- every cell moves it
    metrics["virt.latency_p50_s"] = statistics.geometric_mean(
        statistics.median(values) for values in by_cell.values() if values)
    # the highest percentile with at least ten samples beyond it
    if len(sample) - math.ceil(0.9 * len(sample)) >= 10:
        metrics["virt.latency_p90_s"] = nearest_rank(sample, 0.9)
    metrics["virt.tpm"] = 60.0 * ratio(
        sum(facts["committed"] for _spec, facts in runs),
        sum(facts["duration_s"] for _spec, facts in runs))
    # ingress: the high class at each offered rate, median over seeds
    from workloads import INGRESS_MAX_MEMPOOL, SLO_LIMIT_VIRT_S
    rates = sorted({spec["rate_tps"] for spec, _facts in runs
                    if spec["rate_tps"]})
    for rate in rates:
        at_rate = [facts for spec, facts in runs if spec["rate_tps"] == rate]
        p90 = statistics.median(facts["slo_p90_s"] for facts in at_rate)
        if rate == rates[-1]:
            metrics["virt.slo_p90_s"] = p90
        if (p90 <= SLO_LIMIT_VIRT_S
                and not any(facts["slo_shed"] for facts in at_rate)
                and all(facts["backlog_max"] <= INGRESS_MAX_MEMPOOL
                        for facts in at_rate)):
            metrics["virt.slo_max_rate_tps"] = float(rate)
    # batched vs unbatched twins: 1 - median batched / median unbatched
    sides = {side: [x for spec, facts in runs for x in facts["latencies"]
                    if spec["pair"] and spec["batched"] is side and x == x]
             for side in (True, False)}
    if timed["workload"] == "fig13a-n4" and all(sides.values()):
        metrics["virt.batching_latency_reduction"] = 1.0 - ratio(
            statistics.median(sides[True]), statistics.median(sides[False]))
    return metrics


def fingerprint(timed: dict) -> str:
    """SHA-256 over the result fingerprints of the first MIN_SEEDS passes."""
    digest = hashlib.sha256()
    for one_pass in timed["passes"][:MIN_SEEDS]:
        for name, cell in sorted(one_pass["cells"].items()):
            digest.update(f"{one_pass['seed']}|{name}|"
                          f"{cell.get('fingerprint')}\n".encode())
    return digest.hexdigest()


def end_to_end_metrics(timed: dict, setups: list) -> dict:
    """What a user of the simulator sees, one value per workload."""
    passes = timed["passes"]
    return {
        "wall_s": statistics.median(pass_total(p, "wall_s") for p in passes),
        "cpu_s": statistics.median(pass_total(p, "cpu_s") for p in passes),
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def reduction(runs: list, key: str) -> float:
    """unbatched / batched of ``key`` over the twin cells (base = batched)."""
    batched = sum(facts[key] for spec, facts in runs
                  if spec["pair"] and spec["batched"])
    unbatched = sum(facts[key] for spec, facts in runs
                    if spec["pair"] and not spec["batched"])
    return ratio(unbatched, batched)


def per_layer_metrics(timed: dict, traced: dict) -> dict:
    """The traced split of seed S, beside counts and the virt.* detail."""
    trace = traced["trace"]
    untraced_wall = pass_total(timed["passes"][0], "wall_s")
    traced_wall = pass_total(traced["passes"][0], "wall_s")
    root = sum(layer["self_s"] for layer in trace["layers"].values())
    specs = {spec["name"]: spec for spec in timed["cells"]}
    runs = [(specs[name], cell["facts"])
            for name, cell in traced["passes"][0]["cells"].items()
            if "facts" in cell]
    attempted, failed = operations(timed)

    def group(name: str) -> dict:
        return trace["groups"].get(name, {"calls": 0, "self_s": 0.0})

    metrics = {"failed_ops_ratio": ratio(failed, attempted)}
    metrics.update(virtual_metrics(timed))
    for layer in LAYERS:
        totals = trace["layers"].get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.self_s"] = totals["self_s"]
        metrics[f"{layer}.self_share"] = ratio(totals["self_s"], root)
        metrics[f"{layer}.calls"] = totals["calls"]
    for name in ("crypto.sig", "crypto.tsig", "crypto.coin", "crypto.tenc",
                 "components.dispatch", "components.erasure",
                 "core.handle_frame", "core.send", "core.build_packet",
                 "protocols.propose", "testbed.poll", "testbed.mempool",
                 "testbed.gateway", "testbed.build_deployment"):
        metrics[f"{name}.calls"] = group(name)["calls"]
        metrics[f"{name}.self_s"] = group(name)["self_s"]
    committed = sum(facts["committed"] for _spec, facts in runs)
    offered = sum(facts["offered"] for _spec, facts in runs)
    metrics.update({
        "crypto.modelled_cpu_virt_s":
            sum(facts["modelled_crypto_s"] for _spec, facts in runs),
        "components.aba_rounds":
            sum(facts["aba_rounds"] for _spec, facts in runs),
        "core.msgs_per_frame":
            ratio(trace["logical_messages_sent"], trace["frames_sent"]),
        "core.channel_access_reduction": reduction(runs, "channel_accesses"),
        "core.bytes_reduction": reduction(runs, "bytes_sent"),
        "net.event_loop.self_s": group("net.event_loop")["self_s"],
        "net.deliver_frame.calls": group("net.deliver_frame")["calls"],
        "net.broadcast.calls": group("net.broadcast")["calls"],
        "net.sim_events": trace["sim_events"],
        "net.sim_events_per_wall_s": ratio(trace["sim_events"], untraced_wall),
        "net.channel_accesses": trace["channel_accesses"],
        "net.frames_sent": trace["frames_sent"],
        "net.bytes_sent": trace["bytes_sent"],
        "net.collisions": trace["collisions"],
        "net.collision_rate": ratio(trace["collisions"],
                                    trace["transmissions"]),
        "net.channel_busy_virt_s": trace["channel_busy_virt_s"],
        "net.adversary_drops": trace["adversary_drops"],
        "net.shard.windows": group("net.shard_horizon")["calls"],
        "net.shard.self_s": group("net.shard")["self_s"]
                            + group("net.shard_horizon")["self_s"],
        "net.shard.event_imbalance": trace["event_imbalance"],
        "testbed.poll_per_event": ratio(group("testbed.poll")["calls"],
                                        trace["sim_events"]),
        "testbed.harness.self_s": group("testbed.harness")["self_s"],
        "testbed.committed_tx": committed,
        "testbed.committed_tx_per_wall_s": ratio(committed, untraced_wall),
        "testbed.epochs_per_wall_s": ratio(
            sum(facts["epochs"] for _spec, facts in runs), untraced_wall),
        "testbed.mempool_drops":
            sum(facts["mempool_drops"] for _spec, facts in runs),
        "testbed.shed_ratio": ratio(
            sum(facts["shed"] for _spec, facts in runs), offered),
        "testbed.backlog_max":
            max(facts["backlog_max"] for _spec, facts in runs) if runs else 0,
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
    })
    return metrics


def operations(report: dict) -> tuple:
    """(attempted, failed) entry-point calls over every pass of a report."""
    cells = [cell for one_pass in report["passes"]
             for cell in one_pass["cells"].values()]
    return len(cells), sum(1 for cell in cells if cell["failure"])


def trace_mismatches(timed: dict, traced: dict) -> list:
    """Cells of seed S whose traced result differs from the untraced one."""
    untraced = timed["passes"][0]["cells"]
    return [name for name, cell in traced["passes"][0]["cells"].items()
            if cell.get("fingerprint") != untraced[name].get("fingerprint")]


def measure(workload: str, seed: int, seconds: float, traces: tuple,
            spans_out: str = "") -> dict:
    """Run the children ``traces`` asks for and assemble one workload's row."""
    timed = spawn("timed", workload, seed, seconds)
    attempted, failed = operations(timed)
    problems = [f"{one_pass['seed']}/{name}: {cell['failure']}"
                for one_pass in timed["passes"]
                for name, cell in one_pass["cells"].items() if cell["failure"]]
    metrics = {}
    samples = {"wall_s": [pass_total(p, "wall_s") for p in timed["passes"]],
               "cpu_s": [pass_total(p, "cpu_s") for p in timed["passes"]]}
    if 0 in traces:
        setups = [timed["setup_s"]] + [
            spawn("setup", workload, seed, seconds)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        samples["setup_s"] = setups
        metrics.update(end_to_end_metrics(timed, setups))
    layers = {}
    if 1 in traces:
        traced = spawn("traced", workload, seed, seconds, spans_out)
        traced_attempted, traced_failed = operations(traced)
        attempted += traced_attempted
        failed += traced_failed
        problems += [f"traced {name}: result differs from the untraced run "
                     f"of seed {seed}"
                     for name in trace_mismatches(timed, traced)]
        metrics.update(per_layer_metrics(timed, traced))
        layers = traced["trace"]["layers"]
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "problems": problems, "seeds": len(timed["passes"]),
            "host_slowdown": statistics.median(
                p["host_slowdown"] for p in timed["passes"]),
            "virt_fingerprint": fingerprint(timed), "backend": timed["backend"],
            "samples": samples, "layers": layers, "metrics": metrics}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def with_units(metrics: dict, contract: dict) -> dict:
    units = {entry["name"]: entry["unit"]
             for section in ("end_to_end", "per_layer")
             for entry in contract[section]}
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}


def summary(workload: str, row: dict) -> str:
    """One human-readable table per workload."""
    shown = row["metrics"]
    lines = [f"== {workload} ==  seeds={row['seeds']} attempted="
             f"{row['attempted']} failed={row['failed']} "
             f"correct={row['correct']}",
             f"   virt_fingerprint {row['virt_fingerprint'][:16]}  "
             f"backend {row['backend']['mode']}  host ran at "
             f"{row['host_slowdown']:.2f}x the reference calibration time "
             f"(host seconds below are divided by it)"]
    lines += [f"   !! {problem}" for problem in row["problems"]]
    if shown:
        lines.append("   -- metrics (host time, in reference-speed seconds, "
                     "unless the unit says virt)")
        for name in shown:
            value = shown[name]["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            note = ""
            if name == "virt.batching_latency_reduction" and value:
                note = (f"   ({PAPER_CLAIM}; the radio here is simulated, so "
                        f"no error figure against the authors' hardware is "
                        f"claimed)")
            lines.append(f"   {name:34s} {text:>14s} {shown[name]['unit']}{note}")
    if row["layers"]:
        root = sum(layer["self_s"] for layer in row["layers"].values())
        lines.append("   -- layer split of the traced pass, by self_share")
        for layer, totals in sorted(row["layers"].items(),
                                    key=lambda item: -item[1]["self_s"]):
            lines.append(f"   {layer:12s} {ratio(totals['self_s'], root):7.1%}"
                         f" {totals['self_s']:9.4f} s {totals['calls']:9d} calls")
    if workload in ("stream-n4", "ingress-n4"):
        lines.append("   open loop inside the model: arrivals are functions "
                     "of (seed, node, index) on the virtual clock, latency "
                     "counts from the instant a transaction was due, "
                     "generator lateness is zero by construction")
    return "\n".join(lines)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7000)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end metrics, 1 = per-layer metrics "
                             "(default: both)")
    parser.add_argument("--out", default="",
                        help="write the result JSON here and summary.txt "
                             "beside it")
    parser.add_argument("--spans-out", default="",
                        help="dump the raw spans of the traced pass "
                             "(one workload only)")
    parser.add_argument("--child", choices=("timed", "traced", "setup"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    contract = load_contract()
    known = [entry["name"] for entry in contract["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; known: {known}")
    if args.spans_out and (len(names) != 1 or args.trace == 0):
        raise SystemExit("--spans-out needs exactly one --workload and a "
                         "traced pass")
    traces = (0, 1) if args.trace is None else (args.trace,)
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    rows, texts = {}, []
    for name in names:
        row = measure(name, args.seed, seconds, traces, args.spans_out)
        row["metrics"] = with_units(row["metrics"], contract)
        rows[name] = row
        texts.append(summary(name, row))
        print(texts[-1], flush=True)
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(directory, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "workloads": rows}, handle, indent=1, sort_keys=True)
        with open(os.path.join(directory, "summary.txt"), "w",
                  encoding="utf-8") as handle:
            handle.write("\n\n".join(texts) + "\n")
    if len(names) == 1 and len(traces) == 1:
        # the benchmark contract's result: last line of standard output
        row = rows[names[0]]
        print(json.dumps({key: row[key] for key in (
            "correct", "attempted", "failed", "metrics")}))
    return 0 if all(row["correct"] for row in rows.values()) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except LedgerError as error:
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        sys.exit(2)
