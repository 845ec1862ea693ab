"""``scripts/run_campaign.py``: ``--only`` selects one cell by its id, and a
red cell prints the command that replays it alone."""

import importlib.util
import os

import pytest

from repro.testbed import campaign
from repro.testbed.invariants import InvariantVerdict

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "run_campaign_under_test",
        os.path.join(_ROOT, "scripts", "run_campaign.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


script = _load_script()


@pytest.mark.parametrize("quick", (True, False))
@pytest.mark.parametrize("base_seed", (0, 7))
def test_every_cell_id_selects_exactly_its_cell(quick, base_seed):
    # The replay command is ``--only '<cell id>'``: it must run that cell
    # and nothing else.
    cells = campaign.default_cells(quick, base_seed)
    for cell in cells:
        assert script.select(cells, cell.cell_id) == [cell], cell.cell_id


@pytest.mark.parametrize("quick", (True, False))
def test_red_cell_prints_its_replay_command(quick, tmp_path, monkeypatch,
                                            capsys):
    def failing(cell, quick=True):
        return campaign.CellOutcome(
            cell_id=cell.cell_id, protocol=cell.protocol,
            topology=cell.topology.label, fault=cell.fault,
            flavor=cell.flavor, seed=cell.seed, expect_decision=True,
            decided=False, ok=False, latency_s=None,
            committed_transactions=0, block_digest="", bytes_sent=0,
            channel_accesses=0, collisions=0,
            invariants=[InvariantVerdict("liveness", False, "no decision")])

    monkeypatch.setattr(campaign, "run_cell", failing)
    cell = campaign.default_cells(quick, base_seed=7)[0]
    argv = ["--seed", "7", "--parallel", "1", "--only", cell.cell_id,
            "--output", str(tmp_path / "one.json")]
    if not quick:
        argv.insert(0, "--full")
    assert script.main(argv) == 1
    mode = "" if quick else " --full"
    assert (f"PYTHONPATH=src python scripts/run_campaign.py --seed 7{mode} "
            f"--only '{cell.cell_id}' --output /tmp/replay.json"
            in capsys.readouterr().err)
