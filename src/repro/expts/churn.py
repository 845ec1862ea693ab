"""Churn-robustness experiment family: dynamic membership under streaming.

One spec family over :func:`repro.testbed.streaming.run_streaming_consensus`
driven by the declarative churn processes of
:mod:`repro.testbed.workload` (:class:`ChurnSpec`) expanded into
:class:`repro.testbed.membership.MembershipSchedule` timelines: every cell
streams a protocol through a churn profile -- Poisson join/leave arrivals,
a permanent mid-stream crash with standby replacement, or both -- and emits
one summary row per run while gating on the full conformance suite plus the
two reconfiguration invariants (ledger continuity across reconfiguration,
liveness under bounded churn).

The claim checks encode the reconfiguration contract: the mixed profile's
30-epoch stream must observe at least three committee reconfigurations and
at least one permanent crash healed by a standby replacement, every stream
must complete all its target epochs, and no committee may ever dip below
the 3f+1 quorum floor.

Like every other spec, cells are pure functions of their params: churn
timelines are expanded from the run seed on a dedicated RNG stream and all
metrics are virtual-time only, so RESULTS.json stays byte-reproducible
across reruns and worker counts.
"""

from __future__ import annotations

from repro.expts.judged import judged_stream
from repro.expts.registry import register
from repro.expts.specs import ExperimentSpec
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec
from repro.testbed.workload import ArrivalSpec, ChurnSpec

CHURN_PROTOCOLS = ("honeybadger-sc", "beat")
CHURN_SEED = 2027
CHURN_BATCH = 4
#: virtual-time budget: the longest (30-epoch, reconfiguring) stream fits
#: well inside this
CHURN_TIMEOUT_S = 3000.0

#: churn profiles swept by the family: (universe size, epochs, ChurnSpec).
#: ``mixed`` is the acceptance profile -- a 30-epoch stream over a 7-node
#: universe with join/leave churn plus a permanent crash that a standby
#: heals, expected to reconfigure the committee at least three times.
CHURN_PROFILES = {
    "steady-churn": (6, 12, ChurnSpec(
        initial_size=5, join_rate=0.02, leave_rate=0.02, horizon_s=300.0)),
    "crash-replace": (5, 10, ChurnSpec(
        initial_size=4, crash_times=(40.0,), horizon_s=200.0)),
    "mixed": (7, 30, ChurnSpec(
        initial_size=5, join_rate=0.03, leave_rate=0.03,
        crash_times=(60.0,), horizon_s=500.0)),
}

#: profiles whose timeline includes a permanent crash (claim-checked to
#: observe the crash and survive it via replacement)
CRASH_PROFILES = ("crash-replace", "mixed")


def churn_cell(params: dict) -> list:
    """Stream one protocol through one churn profile; one summary row."""
    universe, epochs, churn = CHURN_PROFILES[params["profile"]]
    scenario = Scenario.single_hop(universe).with_membership(churn).replace(
        timeout_s=CHURN_TIMEOUT_S)
    spec = StreamingSpec(
        epochs=epochs, batch_size=CHURN_BATCH,
        arrival=ArrivalSpec(rate_tps=1.0, transaction_bytes=32,
                            max_mempool=512))
    result = judged_stream(f"{params['protocol']} x {params['profile']}",
                           params["protocol"], scenario, spec, CHURN_SEED)
    crashes = sum(len(record.crashed) for record in result.committees)
    return [[params["protocol"], params["profile"], epochs,
             result.epochs_completed, result.reconfigurations, crashes,
             result.committed_transactions,
             round(result.throughput_tps, 3),
             round(result.p50_latency_s, 3),
             result.committees[-1].size]]


def check_streams_complete(rows: list) -> None:
    """Every churn stream decided all its target epochs."""
    assert rows, "no churn rows emitted"
    for row in rows:
        assert row[3] == row[2], (
            f"{row[0]} x {row[1]}: completed {row[3]}/{row[2]} epochs")


def check_reconfigurations_observed(rows: list) -> None:
    """The mixed (acceptance) profile reconfigures at least three times and
    every churn-rate profile reconfigures at least once."""
    for row in rows:
        if row[1] == "mixed":
            assert row[4] >= 3, (
                f"{row[0]} x mixed: only {row[4]} reconfigurations "
                f"(need >= 3)")
        elif row[1] == "steady-churn":
            assert row[4] >= 1, (
                f"{row[0]} x steady-churn: no reconfiguration observed")


def check_crash_replacement(rows: list) -> None:
    """Profiles with a scheduled permanent crash observe it and end with a
    committee still at or above the 3f+1 quorum floor (the standby healed
    the loss)."""
    for row in rows:
        if row[1] in CRASH_PROFILES:
            assert row[5] >= 1, (
                f"{row[0]} x {row[1]}: scheduled crash never applied")
        assert row[9] >= 4, (
            f"{row[0]} x {row[1]}: final committee {row[9]} below the "
            f"quorum floor")


CHURN_ROBUSTNESS = register(ExperimentSpec(
    spec_id="churn-robustness",
    paper_anchor="Section VI-C (extended)",
    title="Committee reconfiguration under node churn",
    description=(
        "Multi-epoch streams under declarative membership schedules: "
        "Poisson join/leave churn, a permanent mid-stream crash healed by "
        "a standby replacement, and a mixed 30-epoch profile combining "
        "both.  At every epoch boundary the controller re-deals threshold "
        "keys for the new committee from the dealer cache, rebinds "
        "transports and requeues departed nodes' uncommitted transactions. "
        " Each row is one stream: epochs completed, committee "
        "reconfigurations, permanent crashes, committed throughput and "
        "final committee size.  Every cell gates on the safety/liveness "
        "conformance suite plus ledger continuity across reconfiguration "
        "and liveness under bounded churn; the claim checks require the "
        "mixed profile to reconfigure at least three times and survive a "
        "permanent crash with its committee at or above 3f+1."),
    headers=("protocol", "profile", "epochs", "done", "reconfigs",
             "crashes", "committed tx", "tput tx/s", "p50 epoch s",
             "final n"),
    schema=("str", "str", "int", "int", "int", "int", "int", "float",
            "float", "int"),
    cell_fn=churn_cell,
    grid=tuple({"protocol": protocol, "profile": profile}
               for protocol in CHURN_PROTOCOLS
               for profile in CHURN_PROFILES),
    quick_grid=(
        {"protocol": "honeybadger-sc", "profile": "mixed"},
        {"protocol": "beat", "profile": "crash-replace"},
        {"protocol": "beat", "profile": "steady-churn"},
    ),
    checks=(check_streams_complete, check_reconfigurations_observed,
            check_crash_replacement),
    bindings={"protocols": ", ".join(CHURN_PROTOCOLS),
              "topology": "single-hop (paper profile), universe 5-7 nodes",
              "profiles": ", ".join(CHURN_PROFILES),
              "workload": "open-loop 1 tx/s, 32 B tx, mempool cap 512",
              "seed": str(CHURN_SEED)},
    cell_budget_s=180.0,
))
