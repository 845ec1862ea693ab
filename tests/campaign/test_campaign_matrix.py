"""The campaign conformance tier: every default matrix cell must stay green.

One test per cell of the bounded quick matrix (3 protocol families x 9 fault
models x {single-hop, multi-hop}, workload flavors cycled).  Each cell runs a
full consensus epoch under fault injection and asserts the safety/liveness
invariants.  Excluded from tier-1 by the ``campaign`` marker; run with::

    PYTHONPATH=src python -m pytest -m campaign -q
"""

import hashlib
import json

import pytest

from repro.testbed.campaign import (
    CHURN_FAULTS,
    CampaignCell,
    TopologySpec,
    campaign_report,
    default_cells,
    run_cell,
    run_matrix,
)
from repro.testbed.dealer_cache import stable_seed

CELLS = default_cells(quick=True)

#: the churn sweep: both churn fault models across both protocol families
#: that the reconfiguration layer supports
CHURN_SWEEP = tuple(
    CampaignCell(protocol=protocol, topology=TopologySpec.single(6),
                 fault=fault, flavor="uniform", stream_epochs=8,
                 seed=stable_seed(0, protocol, "sh6", fault, "uniform",
                                  "churn-sweep", 8))
    for protocol in ("honeybadger-sc", "beat")
    for fault in CHURN_FAULTS)


#: sha256 over the ``f"{cell_id} {seed}\n"`` lines of
#: ``default_cells(quick=False, base_seed=0)``, recorded before the cell
#: tables became one table with one seed rule
FULL_MATRIX_SHA256 = \
    "025c01cac66c4d18985e6672fc4133601e22ab273464a0cac22c5b3da14e839f"


def test_full_matrix_ids_and_seeds_are_pinned():
    # Only the quick matrix is pinned by CAMPAIGN.json; this pins the ids
    # and seeds of all 173 full-mode cells without running any of them.
    cells = default_cells(quick=False, base_seed=0)
    lines = "".join(f"{cell.cell_id} {cell.seed}\n" for cell in cells)
    assert len(cells) == 173
    assert hashlib.sha256(lines.encode()).hexdigest() == FULL_MATRIX_SHA256


def test_default_matrix_is_large_enough():
    # The conformance surface the campaign tier promises: at least 40 cells
    # spanning >= 3 protocols x >= 4 fault models x both topology kinds.
    assert len(CELLS) >= 40
    assert len({cell.protocol for cell in CELLS}) >= 3
    assert len({cell.fault for cell in CELLS}) >= 4
    assert {cell.topology.kind for cell in CELLS} == {"single-hop", "multi-hop"}


@pytest.mark.campaign
@pytest.mark.parametrize("cell", CELLS, ids=[cell.cell_id for cell in CELLS])
def test_campaign_cell_conformance(cell):
    outcome = run_cell(cell, quick=True)
    violations = [verdict for verdict in outcome.invariants if not verdict.ok]
    assert outcome.ok, (
        f"cell {cell.cell_id} violated "
        f"{[f'{v.name}: {v.detail}' for v in violations]}")


@pytest.mark.campaign
def test_cell_replay_is_deterministic():
    # Re-running one cell must reproduce the identical outcome record --
    # this is what makes a red cell debuggable after the fact.
    cell = CELLS[0]
    first = run_cell(cell, quick=True)
    second = run_cell(cell, quick=True)
    assert first.to_json() == second.to_json()


@pytest.mark.campaign
def test_scenario_cells_byte_stable_across_worker_counts():
    # The scenario cells' per-phase metrics and verdicts must serialize to
    # the identical CAMPAIGN.json fragment whether the matrix runs serially
    # or across worker processes.
    cells = [cell for cell in CELLS if cell.scenario]
    assert len(cells) == 3, [cell.cell_id for cell in cells]
    serial = run_matrix(cells, quick=True, workers=1)
    parallel = run_matrix(cells, quick=True, workers=3)
    serial_doc = json.dumps(campaign_report(serial, base_seed=0, quick=True),
                            sort_keys=True)
    parallel_doc = json.dumps(campaign_report(parallel, base_seed=0,
                                              quick=True), sort_keys=True)
    assert serial_doc == parallel_doc
    for outcome in serial:
        assert outcome.ok and outcome.decided, outcome.to_json()
        assert outcome.phases, outcome.cell_id
        assert {"ledger-continuity", "scenario-recovery"} <= {
            verdict.name for verdict in outcome.invariants}


@pytest.mark.campaign
@pytest.mark.parametrize("cell", CHURN_SWEEP,
                         ids=[cell.cell_id for cell in CHURN_SWEEP])
def test_churn_sweep_conformance(cell):
    # Both churn fault models, across both protocol families, must decide
    # and pass both reconfiguration verdicts on top of the base suite.
    outcome = run_cell(cell, quick=True)
    names = {verdict.name for verdict in outcome.invariants}
    assert {"ledger-continuity-across-reconfig",
            "liveness-under-bounded-churn"} <= names, names
    assert outcome.ok and outcome.decided, outcome.to_json()
    assert outcome.committees, outcome.cell_id
    if cell.fault == "permanent-crash-with-replacement":
        assert any(record["crashed"] for record in outcome.committees)


@pytest.mark.campaign
def test_churn_cells_byte_stable_across_worker_counts():
    # The churn cells' committee trails and verdicts must serialize to the
    # identical CAMPAIGN.json fragment whether the matrix runs serially or
    # across worker processes.
    cells = [cell for cell in CELLS if cell.fault in CHURN_FAULTS]
    # the two plain churn cells plus the two behind an ingress
    assert len(cells) == 4, [cell.cell_id for cell in cells]
    assert sum(1 for cell in cells if cell.ingress) == 2
    serial = run_matrix(cells, quick=True, workers=1)
    parallel = run_matrix(cells, quick=True, workers=3)
    serial_doc = json.dumps(campaign_report(serial, base_seed=0, quick=True),
                            sort_keys=True)
    parallel_doc = json.dumps(campaign_report(parallel, base_seed=0,
                                              quick=True), sort_keys=True)
    assert serial_doc == parallel_doc
    for outcome in serial:
        assert outcome.ok and outcome.decided, outcome.to_json()
        assert outcome.committees, outcome.cell_id
