"""Integration tests for the accelerator-level simulators."""

import numpy as np
import pytest
from dataclasses import replace

from repro.core.accelerator import (
    AcceleratorSimulator,
    choose_serial_side,
    _sample_runs,
    _sample_column_runs,
)
from repro.core.baseline import BaselineAccelerator
from repro.core.config import (
    baseline_paper_config,
    fpraker_paper_config,
    pragmatic_paper_config,
)
from repro.core.pragmatic import PragmaticFPAccelerator
from repro.core.workload import PhaseWorkload
from repro.fp.bfloat16 import bf16_quantize


def _workload(rng, macs=8_000_000, reduction=512, sparsity=0.4, bytes_=1e6):
    values_a = bf16_quantize(rng.normal(0, 1, 4096))
    values_a[rng.random(4096) < sparsity] = 0.0
    values_b = bf16_quantize(rng.normal(0, 1, 4096))
    return PhaseWorkload(
        model="test",
        layer="layer0",
        phase="AxW",
        macs=macs,
        reduction=reduction,
        tensor_a="A",
        tensor_b="W",
        values_a=values_a,
        values_b=values_b,
        input_bytes=bytes_,
        output_bytes=bytes_ / 4,
    )


class TestPhaseWorkload:
    def test_phase_validation(self, rng):
        with pytest.raises(ValueError):
            PhaseWorkload(
                model="m", layer="l", phase="XxY", macs=1, reduction=1,
                tensor_a="A", tensor_b="W",
                values_a=np.ones(4), values_b=np.ones(4),
            )

    def test_macs_validation(self, rng):
        with pytest.raises(ValueError):
            PhaseWorkload(
                model="m", layer="l", phase="AxW", macs=0, reduction=1,
                tensor_a="A", tensor_b="W",
                values_a=np.ones(4), values_b=np.ones(4),
            )


class TestSerialSideSelection:
    def test_auto_picks_fewer_terms(self, rng):
        sparse = np.zeros(256)
        sparse[:16] = 1.0
        dense = bf16_quantize(rng.normal(0, 1, 256))
        workload = _workload(rng)
        workload.values_a = sparse
        workload.values_b = dense
        serial, parallel, name = choose_serial_side(workload, "auto")
        assert name == "A"
        workload.values_a, workload.values_b = dense, sparse
        _, _, name = choose_serial_side(workload, "auto")
        assert name == "W"

    def test_forced_sides(self, rng):
        workload = _workload(rng)
        assert choose_serial_side(workload, "a")[2] == "A"
        assert choose_serial_side(workload, "b")[2] == "W"

    def test_invalid_mode(self, rng):
        with pytest.raises(ValueError):
            choose_serial_side(_workload(rng), "c")


class TestSamplers:
    def test_runs_are_contiguous(self, rng):
        values = np.arange(1000, dtype=np.float64)
        runs = _sample_runs(values, (5, 7), 8, rng)
        assert runs.shape == (5, 7, 8)
        diffs = np.diff(runs, axis=-1)
        assert np.all(diffs == 1.0)

    def test_column_runs_strided(self, rng):
        values = np.arange(1000, dtype=np.float64)
        runs = _sample_column_runs(values, 8, 5, 8, rng)
        assert runs.shape == (8, 5, 8)
        # Adjacent columns offset by the stride at every step.
        assert np.all(runs[1] - runs[0] == 2.0)

    def test_small_value_pool_tiled(self, rng):
        values = np.array([1.0, 2.0])
        runs = _sample_runs(values, (3,), 8, rng)
        assert runs.shape == (3, 8)

    def test_empty_stream_yields_zero_runs(self, rng):
        """Regression: an empty stream used to crash rng.integers (tiling
        cannot grow a zero-size array, so high stayed non-positive)."""
        runs = _sample_runs(np.array([]), (3, 4), 8, rng)
        assert runs.shape == (3, 4, 8)
        assert np.all(runs == 0.0)

    def test_empty_stream_yields_zero_column_runs(self, rng):
        runs = _sample_column_runs(np.array([]), 8, 5, 8, rng)
        assert runs.shape == (8, 5, 8)
        assert np.all(runs == 0.0)

    def test_single_value_pool_column_runs(self, rng):
        """A pool smaller than the column span tiles up cleanly."""
        runs = _sample_column_runs(np.array([3.0]), 8, 5, 8, rng)
        assert runs.shape == (8, 5, 8)
        assert np.all(runs == 3.0)


class TestAcceleratorSimulator:
    def test_deterministic(self, rng):
        workload = _workload(rng)
        r1 = AcceleratorSimulator(seed=5).simulate_phase(workload)
        r2 = AcceleratorSimulator(seed=5).simulate_phase(workload)
        assert r1.cycles == r2.cycles
        assert r1.counters.terms.processed == r2.counters.terms.processed

    def test_seed_changes_sampling(self, rng):
        workload = _workload(rng)
        r1 = AcceleratorSimulator(seed=5).simulate_phase(workload)
        r2 = AcceleratorSimulator(seed=6).simulate_phase(workload)
        assert r1.compute_cycles != r2.compute_cycles  # strips differ

    def test_counters_scaled_to_macs(self, rng):
        workload = _workload(rng)
        result = AcceleratorSimulator().simulate_phase(workload)
        assert result.counters.macs == pytest.approx(workload.macs)
        assert result.counters.groups == pytest.approx(workload.macs / 8)

    def test_compute_cycles_scaling(self, rng):
        """Twice the MACs costs twice the compute cycles."""
        w1 = _workload(rng, macs=4_000_000)
        w2 = _workload(rng, macs=8_000_000)
        sim = AcceleratorSimulator()
        r1, r2 = sim.simulate_phase(w1), sim.simulate_phase(w2)
        assert r2.compute_cycles == pytest.approx(2 * r1.compute_cycles, rel=0.05)

    def test_dram_roofline_binds(self, rng):
        heavy = _workload(rng, macs=1_000_000, bytes_=1e9)
        result = AcceleratorSimulator().simulate_phase(heavy)
        assert result.cycles == result.dram_cycles
        assert result.dram_cycles > result.compute_cycles

    def test_bdc_reduces_traffic(self, rng):
        workload = _workload(rng, bytes_=1e8)
        with_bdc = AcceleratorSimulator(fpraker_paper_config())
        without = AcceleratorSimulator(
            replace(fpraker_paper_config(), base_delta_compression=False)
        )
        r1 = with_bdc.simulate_phase(workload)
        r0 = without.simulate_phase(workload)
        assert r1.dram_bytes < r0.dram_bytes
        assert r0.dram_bytes == workload.total_bytes

    def test_narrow_accumulator_override_speeds_up(self, rng):
        workload = _workload(rng)
        narrow = replace(workload) if False else workload
        base = AcceleratorSimulator().simulate_phase(workload)
        workload.acc_frac_bits = 5
        profiled = AcceleratorSimulator().simulate_phase(workload)
        workload.acc_frac_bits = None
        assert profiled.compute_cycles <= base.compute_cycles

    def test_workload_result_aggregation(self, rng):
        workloads = [_workload(rng), _workload(rng, macs=2_000_000)]
        workloads[1].phase = "GxW"
        result = AcceleratorSimulator().simulate_workload(workloads)
        assert result.macs == 10_000_000
        assert result.cycles == pytest.approx(
            sum(p.cycles for p in result.phases)
        )
        assert result.cycles_of_phase("GxW") == result.phases[1].cycles

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError, match="empty workload list"):
            AcceleratorSimulator().simulate_workload([])

    def test_energy_positive(self, rng):
        result = AcceleratorSimulator().simulate_phase(_workload(rng))
        assert result.energy.core.total > 0
        assert result.energy.on_chip > 0
        assert result.energy.off_chip > 0

    def test_empty_value_streams_simulate(self, rng):
        """Regression: a fully-sparse/empty tensor workload used to
        crash deep in the run samplers; it must yield a well-defined
        all-idle result instead."""
        workload = _workload(rng)
        workload.values_a = np.array([])
        workload.values_b = np.array([])
        result = AcceleratorSimulator(
            sample_strips=2, sample_steps=8
        ).simulate_phase(workload)
        assert np.isfinite(result.cycles) and result.cycles > 0
        assert result.counters.lanes.useful == 0.0
        assert result.counters.terms.processed == 0.0

    def test_all_zero_value_streams_simulate(self, rng):
        workload = _workload(rng)
        workload.values_a = np.zeros(4096)
        workload.values_b = np.zeros(4096)
        result = AcceleratorSimulator(
            sample_strips=2, sample_steps=8
        ).simulate_phase(workload)
        assert np.isfinite(result.cycles) and result.cycles > 0
        assert result.counters.terms.processed == 0.0


class TestBaselineAccelerator:
    def test_compute_is_macs_over_peak(self, rng):
        workload = _workload(rng, bytes_=0.0)
        config = baseline_paper_config()
        result = BaselineAccelerator(config).simulate_phase(workload)
        assert result.compute_cycles == workload.macs / config.peak_macs_per_cycle

    def test_value_independent(self, rng):
        w1 = _workload(rng, sparsity=0.0)
        w2 = _workload(rng, sparsity=0.9)
        sim = BaselineAccelerator()
        assert sim.simulate_phase(w1).cycles == sim.simulate_phase(w2).cycles

    def test_lanes_always_useful(self, rng):
        result = BaselineAccelerator().simulate_phase(_workload(rng))
        assert result.counters.lanes.fractions()["useful"] == 1.0

    def test_no_compression(self, rng):
        workload = _workload(rng, bytes_=1e8)
        result = BaselineAccelerator().simulate_phase(workload)
        assert result.dram_bytes == workload.total_bytes


class TestSpeedupRelations:
    def test_fpraker_beats_baseline_on_sparse_work(self, rng):
        workload = _workload(rng, sparsity=0.7, bytes_=0.0)
        fpr = AcceleratorSimulator().simulate_workload([workload])
        base = BaselineAccelerator().simulate_workload([workload])
        assert fpr.speedup_vs(base) > 1.0

    def test_pragmatic_slower_than_fpraker(self, rng):
        workload = _workload(rng, sparsity=0.3, bytes_=0.0)
        fpr = AcceleratorSimulator().simulate_workload([workload])
        prag = PragmaticFPAccelerator().simulate_workload([workload])
        assert fpr.cycles < prag.cycles

    def test_speedup_symmetry(self, rng):
        workload = _workload(rng)
        fpr = AcceleratorSimulator().simulate_workload([workload])
        base = BaselineAccelerator().simulate_workload([workload])
        assert fpr.speedup_vs(base) == pytest.approx(
            1.0 / base.speedup_vs(fpr)
        )
