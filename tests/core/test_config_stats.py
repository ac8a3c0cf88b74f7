"""Tests for configuration objects and statistic ledgers."""

import pytest

from repro.core.config import (
    AcceleratorConfig,
    PEConfig,
    TileConfig,
    baseline_paper_config,
    fpraker_paper_config,
    pragmatic_paper_config,
)
from repro.core.stats import LaneLedger, SimCounters, TermLedger


class TestPaperConfigs:
    def test_fpraker_table2(self):
        config = fpraker_paper_config()
        assert config.tiles == 36
        assert config.total_pes == 2304
        assert config.tile.pe.lanes == 8
        assert config.tile.pe.shift_window == 3
        assert config.tile.pe.accumulator.frac_bits == 12
        assert config.clock_mhz == 600.0

    def test_baseline_table2(self):
        config = baseline_paper_config()
        assert config.tiles == 8
        assert config.total_pes == 512
        assert config.peak_macs_per_cycle == 4096
        assert not config.base_delta_compression

    def test_pragmatic_iso_area(self):
        config = pragmatic_paper_config()
        assert config.tiles == 20
        assert not config.tile.pe.ob_skip
        assert config.tile.pe.exponent_sharing == 1

    def test_overrides(self):
        config = fpraker_paper_config(tiles=4)
        assert config.tiles == 4

    def test_min_group_cycles(self):
        assert PEConfig(exponent_sharing=2).min_group_cycles == 2
        assert PEConfig(exponent_sharing=1).min_group_cycles == 1

    def test_tile_helpers(self):
        tile = TileConfig(rows=4, cols=2)
        assert tile.pes == 8
        assert tile.macs_per_group_step == 64


class TestLaneLedger:
    def test_total_and_fractions(self):
        ledger = LaneLedger(useful=6, no_term=2, shift_range=1, inter_pe=1)
        assert ledger.total() == 10
        fractions = ledger.fractions()
        assert fractions["useful"] == 0.6
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_fractions(self):
        assert all(v == 0.0 for v in LaneLedger().fractions().values())

    def test_add_with_weight(self):
        a = LaneLedger(useful=1.0, exponent=2.0)
        b = LaneLedger(useful=3.0)
        a.add(b, weight=2.0)
        assert a.useful == 7.0
        assert a.exponent == 2.0


class TestTermLedger:
    def test_skipped_fraction(self):
        terms = TermLedger(processed=2, zero_skipped=5, ob_skipped=1)
        assert terms.total_slots() == 8
        assert terms.skipped_fraction() == 0.75
        assert terms.ob_share_of_skipped() == pytest.approx(1 / 6)

    def test_empty(self):
        assert TermLedger().skipped_fraction() == 0.0
        assert TermLedger().ob_share_of_skipped() == 0.0


class TestSimCounters:
    def test_add_scales_everything(self):
        a = SimCounters(cycles=10, groups=5, macs=40)
        a.lanes.useful = 100
        a.terms.processed = 50
        b = SimCounters(cycles=1, groups=1, macs=8)
        b.lanes.useful = 10
        b.terms.processed = 5
        a.add(b, weight=3.0)
        assert a.cycles == 13
        assert a.macs == 64
        assert a.lanes.useful == 130
        assert a.terms.processed == 65
