"""Tests for the tile simulator: synchronization and conservation laws."""

import numpy as np
import pytest

from repro.core.config import PEConfig, TileConfig
from repro.core.tile import TileSimulator, accumulator_exponents
from repro.fp.bfloat16 import bf16_quantize


def _strip(rng, rows=8, cols=8, steps=16, spread=4, zero_fraction=0.3):
    a = bf16_quantize(
        rng.normal(0, 1, (cols, steps, 8)) * 2.0 ** rng.integers(-spread, spread, (cols, steps, 8))
    )
    b = bf16_quantize(
        rng.normal(0, 1, (rows, steps, 8)) * 2.0 ** rng.integers(-spread, spread, (rows, steps, 8))
    )
    a[rng.random(a.shape) < zero_fraction] = 0.0
    return a, b


class TestAccumulatorExponents:
    def test_shape(self, rng):
        a, b = _strip(rng, steps=10)
        eacc = accumulator_exponents(a, b)
        assert eacc.shape == (8, 8, 10)

    def test_first_step_empty(self, rng):
        a, b = _strip(rng)
        eacc = accumulator_exponents(a, b)
        assert np.all(eacc[:, :, 0] < -(1 << 39))

    def test_tracks_running_sum(self, rng):
        a, b = _strip(rng, zero_fraction=0.0)
        eacc = accumulator_exponents(a, b)
        partial = np.einsum("csl,rsl->rcs", a, b)
        running = np.cumsum(partial, axis=2)
        for r in range(8):
            for c in range(8):
                for s in range(1, 10):
                    total = running[r, c, s - 1]
                    if total != 0.0:
                        expected = int(np.floor(np.log2(abs(total))))
                        assert eacc[r, c, s] == expected

    def test_warm_start_raises_exponent(self, rng):
        a, b = _strip(rng)
        cold = accumulator_exponents(a, b)
        warm = accumulator_exponents(a, b, np.full((8, 8), 1e6))
        assert warm[:, :, 0].min() >= 19  # log2(1e6) ~ 19.9
        assert np.all(warm[:, :, 0] > cold[:, :, 0])

    def test_batched_axis_matches_per_strip(self, rng):
        """A [strip, ...] stack evolves each strip independently."""
        a0, b0 = _strip(rng, steps=10)
        a1, b1 = _strip(rng, steps=10)
        a = np.stack([a0, a1])
        b = np.stack([b0, b1])
        init = rng.normal(0, 1e4, (2, 8, 8))
        batch = accumulator_exponents(a, b, init)
        assert batch.shape == (2, 8, 8, 10)
        for i in range(2):
            single = accumulator_exponents(a[i], b[i], init[i])
            assert np.array_equal(batch[i], single)


class TestTileSimulator:
    def test_shape_validation(self, rng):
        a, b = _strip(rng, rows=4)
        with pytest.raises(ValueError):
            TileSimulator(TileConfig(rows=8)).simulate_strip(a, b)

    def test_lane_cycle_conservation(self, rng):
        """Total lane-cycles must equal makespan x rows x cols x lanes."""
        for _ in range(10):
            a, b = _strip(rng)
            result = TileSimulator().simulate_strip(a, b)
            expected = result.makespan * 8 * 8 * 8
            assert result.counters.lanes.total() == pytest.approx(expected)

    def test_minimum_two_cycles_per_step(self, rng):
        """Exponent-block sharing floors every group at two cycles."""
        a = np.ones((8, 16, 8))
        b = np.ones((8, 16, 8))
        result = TileSimulator().simulate_strip(a, b)
        assert result.cycles_per_step >= 2.0

    def test_no_sharing_floor_is_one(self):
        config = TileConfig(pe=PEConfig(exponent_sharing=1))
        a = np.ones((8, 16, 8))
        b = np.ones((8, 16, 8))
        result = TileSimulator(config).simulate_strip(a, b)
        assert result.cycles_per_step < 2.0

    def test_macs_accounted(self, rng):
        a, b = _strip(rng, steps=12)
        result = TileSimulator().simulate_strip(a, b)
        assert result.counters.macs == 8 * 8 * 12 * 8
        assert result.counters.groups == 8 * 8 * 12

    def test_deeper_buffers_never_slower(self, rng):
        for _ in range(5):
            a, b = _strip(rng, spread=6)
            shallow = TileSimulator(TileConfig(buffer_depth=1)).simulate_strip(a, b)
            deep = TileSimulator(TileConfig(buffer_depth=8)).simulate_strip(a, b)
            assert deep.makespan <= shallow.makespan

    def test_sparser_serial_side_faster(self, rng):
        a, b = _strip(rng, zero_fraction=0.0)
        dense = TileSimulator().simulate_strip(a, b)
        a_sparse = a.copy()
        a_sparse[rng.random(a.shape) < 0.6] = 0.0
        sparse = TileSimulator().simulate_strip(bf16_quantize(a_sparse), b)
        assert sparse.makespan <= dense.makespan

    def test_ob_skipping_helps_or_equal(self, rng):
        a, b = _strip(rng, spread=8)
        with_ob = TileSimulator(TileConfig(pe=PEConfig(ob_skip=True)))
        without = TileSimulator(TileConfig(pe=PEConfig(ob_skip=False)))
        warm = np.full((8, 8), 1e4)
        r1 = with_ob.simulate_strip(a, b, warm)
        r0 = without.simulate_strip(a, b, warm)
        assert r1.makespan <= r0.makespan
        assert r1.counters.terms.ob_skipped > 0

    def test_nonstandard_geometry(self, rng):
        config = TileConfig(rows=4, cols=2)
        a, b = _strip(rng, rows=4, cols=2, steps=8)
        result = TileSimulator(config).simulate_strip(a, b)
        assert result.counters.groups == 4 * 2 * 8
        expected = result.makespan * 4 * 2 * 8
        assert result.counters.lanes.total() == pytest.approx(expected)

    def test_term_ledger_scales_with_rows(self, rng):
        """Every PE of a column processes the column's term stream."""
        a2, b2 = _strip(rng, rows=2, steps=8)
        config2 = TileConfig(rows=2)
        r2 = TileSimulator(config2).simulate_strip(a2, b2)
        a4 = a2.copy()
        b4 = np.concatenate([b2, b2], axis=0)
        config4 = TileConfig(rows=4)
        r4 = TileSimulator(config4).simulate_strip(a4, b4)
        # Identical B rows duplicated: twice the PEs process the exact
        # same terms.
        assert r4.counters.terms.processed == 2 * r2.counters.terms.processed

    def test_cycles_per_step(self, rng):
        a, b = _strip(rng, steps=20)
        result = TileSimulator().simulate_strip(a, b)
        assert result.cycles_per_step == result.makespan / 20
