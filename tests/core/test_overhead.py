"""Tests for the Table I message-overhead model."""

import pytest

from repro.core.overhead import MessageOverheadModel, OverheadError, OverheadRow


class TestTableOne:
    def test_paper_formulas_at_n4(self):
        model = MessageOverheadModel(4)
        table = {row.component: row for row in model.table()}
        assert table["RBC"] == OverheadRow("RBC", 27, 9, 3)
        assert table["CBC"] == OverheadRow("CBC", 9, 5, 3)
        assert table["PRBC"] == OverheadRow("PRBC", 39, 13, 4)
        assert table["Bracha's ABA"] == OverheadRow("Bracha's ABA", 324, 108, 9)
        assert table["Cachin's ABA"] == OverheadRow("Cachin's ABA", 36, 12, 3)

    def test_batcher_overhead_constant_in_n(self):
        for component in ("RBC", "CBC", "PRBC", "Bracha's ABA", "Cachin's ABA"):
            small = MessageOverheadModel(4).row(component).consensus_batcher
            large = MessageOverheadModel(31).row(component).consensus_batcher
            assert small == large

    def test_wired_overhead_superlinear(self):
        small = MessageOverheadModel(4).row("RBC").wired
        large = MessageOverheadModel(16).row("RBC").wired
        assert large / small > 4

    def test_row_lookup_takes_exact_component_names(self):
        model = MessageOverheadModel(4)
        for row in model.table():
            assert model.row(row.component) == row
        for unknown in ("rbc", "bracha", "aba-lc", "mvba"):
            with pytest.raises(OverheadError):
                model.row(unknown)

    def test_invalid_size(self):
        with pytest.raises(OverheadError):
            MessageOverheadModel(1)
