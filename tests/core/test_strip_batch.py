"""Batched strip engine vs the serial reference: bit-exact equivalence.

`TileSimulator.simulate_strips` re-derives the column schedule through
monotone reductions over the per-PE alignment base (and runs them in
int16), so nothing about its implementation is shared with the per-strip
reference beyond the cycle-loop semantics.  These tests pin the required
contract: for every geometry, buffer depth, PE configuration, and
operand stream -- including degenerate all-zero ones -- the batch result
is bit-identical to looping `simulate_strip`, mirroring how the
vectorized schedule is pinned against the scalar PE.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec
from repro.core.accelerator import AcceleratorSimulator
from repro.core.config import PEConfig, TileConfig, fpraker_paper_config
from repro.core.pragmatic import PragmaticFPAccelerator
from repro.core.stats import SimCounters
from repro.core.tile import TileSimulator
from repro.core.workload import PhaseWorkload
from repro.fp.accumulator import AccumulatorSpec
from repro.fp.bfloat16 import bf16_quantize
from repro.harness.experiments import _rows_config, _variant_config
from repro.traces.synthetic import gibbs_cache_clear
from repro.traces.workload_cache import WorkloadCache
from repro.traces.workloads import build_workloads


def _strip_stack(seed, strips, rows, cols, steps, spread, zero_fraction):
    """Random bfloat16 operand stacks with controlled sparsity."""
    rng = np.random.default_rng(seed)
    a = bf16_quantize(
        rng.normal(0, 1, (strips, cols, steps, 8))
        * 2.0 ** rng.integers(-spread, spread + 1, (strips, cols, steps, 8))
    )
    b = bf16_quantize(
        rng.normal(0, 1, (strips, rows, steps, 8))
        * 2.0 ** rng.integers(-spread, spread + 1, (strips, rows, steps, 8))
    )
    a[rng.random(a.shape) < zero_fraction] = 0.0
    b[rng.random(b.shape) < zero_fraction / 2] = 0.0
    return a, b, rng


def _assert_batch_matches_serial(config, a, b, initial_sums):
    """The core contract: batch entry i == simulate_strip of strip i."""
    sim = TileSimulator(config)
    batch = sim.simulate_strips(a, b, initial_sums)
    assert batch.strips == a.shape[0]
    assert batch.steps == a.shape[2]
    for i in range(a.shape[0]):
        ref = sim.simulate_strip(
            a[i], b[i], None if initial_sums is None else initial_sums[i]
        )
        got = batch.strip_result(i)
        assert got.makespan == ref.makespan
        assert got.steps == ref.steps
        # SimCounters is a plain dataclass tree: == is field-exact.
        assert got.counters == ref.counters
    assert batch.makespan == sum(
        int(m) for m in batch.makespans
    )


class TestBatchedEqualsSerial:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        strips=st.integers(1, 6),
        rows=st.sampled_from([1, 2, 4, 8]),
        cols=st.sampled_from([1, 2, 4, 8]),
        steps=st.integers(1, 24),
        depth=st.integers(1, 8),
        spread=st.integers(0, 8),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        warm=st.sampled_from([None, 1.0, 1e4, 1e8]),
        ob_skip=st.booleans(),
        window=st.integers(1, 8),
    )
    def test_property(
        self,
        seed,
        strips,
        rows,
        cols,
        steps,
        depth,
        spread,
        zero_fraction,
        warm,
        ob_skip,
        window,
    ):
        """Random geometries, depths, streams (incl. all-zero), warm
        starts, and PE variants: batched == serial, bit for bit."""
        config = TileConfig(
            rows=rows,
            cols=cols,
            buffer_depth=depth,
            pe=PEConfig(ob_skip=ob_skip, shift_window=window),
        )
        a, b, rng = _strip_stack(
            seed, strips, rows, cols, steps, spread, zero_fraction
        )
        if warm is None:
            initial = None
        else:
            initial = rng.normal(0, warm, (strips, rows, cols))
        _assert_batch_matches_serial(config, a, b, initial)

    def test_all_zero_streams(self):
        """Fully zero operands: every strip is pure exponent cycles."""
        a = np.zeros((3, 8, 5, 8))
        b = np.zeros((3, 8, 5, 8))
        _assert_batch_matches_serial(TileConfig(), a, b, None)
        sim = TileSimulator()
        batch = sim.simulate_strips(a, b)
        assert all(c.terms.processed == 0.0 for c in batch.counters)

    def test_wide_datapath_config(self):
        """Pragmatic-FP style PEs (no OB skip, unsaturated shifts)."""
        a, b, _ = _strip_stack(5, 4, 8, 8, 12, 8, 0.2)
        config = TileConfig(
            pe=PEConfig(ob_skip=False, saturate_shifts=False)
        )
        _assert_batch_matches_serial(config, a, b, None)

    def test_narrow_accumulator_config(self):
        a, b, rng = _strip_stack(9, 4, 8, 8, 12, 6, 0.3)
        config = TileConfig(
            pe=PEConfig(accumulator=AccumulatorSpec(frac_bits=5))
        )
        initial = rng.normal(0, 1e6, (4, 8, 8))
        _assert_batch_matches_serial(config, a, b, initial)

    def test_counters_total_matches_serial_accumulation(self):
        a, b, _ = _strip_stack(1, 5, 8, 8, 10, 5, 0.4)
        sim = TileSimulator()
        batch = sim.simulate_strips(a, b)
        total = batch.counters_total()
        assert total.groups == 5 * 8 * 8 * 10
        assert total.cycles == float(batch.makespan)

    def test_shape_validation(self):
        sim = TileSimulator()
        with pytest.raises(ValueError):
            sim.simulate_strips(np.zeros((2, 8, 4, 8)), np.zeros((8, 4, 8)))
        with pytest.raises(ValueError):
            sim.simulate_strips(np.zeros((2, 4, 4, 8)), np.zeros((2, 8, 4, 8)))
        with pytest.raises(ValueError):
            sim.simulate_strips(np.zeros((2, 8, 4, 8)), np.zeros((3, 8, 4, 8)))
        with pytest.raises(ValueError):
            sim.simulate_strips(np.zeros((0, 8, 4, 8)), np.zeros((0, 8, 4, 8)))


class TestLoopFreeStripSchedule:
    """The loop-free column schedule vs the serial `_schedule_columns`.

    `_schedule_strip_columns` derives the firing offsets through a
    masked max-reduction over the row axis (no Python row loop) on
    int16 bit-extracted operand fields; these tests pin it directly --
    schedule arrays, not just aggregated counters -- against the int64
    per-row reference across geometries, depths, PE variants, and
    degenerate streams.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        strips=st.integers(1, 4),
        rows=st.sampled_from([1, 2, 4, 8, 16]),
        cols=st.sampled_from([1, 2, 8]),
        steps=st.integers(1, 16),
        spread=st.integers(0, 8),
        zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        ob_skip=st.booleans(),
        saturate=st.booleans(),
        window=st.integers(1, 8),
        warm=st.sampled_from([None, 1.0, 1e6]),
    )
    def test_schedule_bit_identical(
        self,
        seed,
        strips,
        rows,
        cols,
        steps,
        spread,
        zero_fraction,
        ob_skip,
        saturate,
        window,
        warm,
    ):
        from repro.core.tile import accumulator_exponents

        config = TileConfig(
            rows=rows,
            cols=cols,
            pe=PEConfig(
                ob_skip=ob_skip,
                saturate_shifts=saturate,
                shift_window=window,
            ),
        )
        a, b, rng = _strip_stack(
            seed, strips, rows, cols, steps, spread, zero_fraction
        )
        initial = (
            None if warm is None else rng.normal(0, warm, (strips, rows, cols))
        )
        sim = TileSimulator(config)
        eacc = accumulator_exponents(a, b, initial)
        batched = sim._schedule_strip_columns(a, b, eacc)
        for i in range(strips):
            ref = sim._schedule_columns(a[i], b[i], eacc[i])
            for field in (
                "cycles",
                "useful",
                "shift_stall",
                "no_term",
                "terms_processed",
                "terms_zero_skipped",
                "terms_ob_skipped",
            ):
                got = getattr(batched, field)[i]
                want = getattr(ref, field).reshape(got.shape)
                assert (got == want).all(), field


def _phase_dicts(phases):
    return [codec.to_dict(phase) for phase in phases]


def _serial_reference(sim, workload):
    """One phase through the per-strip reference loop.

    The same operand draw as :meth:`AcceleratorSimulator.simulate_phase`
    (``_prepare_phase``), one :meth:`TileSimulator.simulate_strip` call
    per strip, and the same scaling and memory pricing
    (``_finish_phase``).
    """
    prep = sim._prepare_phase(workload)
    tile = TileSimulator(prep.tile_cfg)
    sampled = SimCounters()
    steps = makespan = 0
    for i in range(prep.strips):
        result = tile.simulate_strip(
            prep.a_stack[i],
            prep.b_stack[i],
            None if prep.initial_sums is None else prep.initial_sums[i],
        )
        sampled.add(result.counters)
        steps += result.steps
        makespan += result.makespan
    return sim._finish_phase(prep, sampled, steps, makespan)


class TestPhaseStacking:
    """Multi-phase stacks == per-phase batched calls, bit for bit."""

    def _workloads(self, model="NCF", acc_profile=None):
        return build_workloads(
            model, progress=0.5, seed=0, acc_profile=acc_profile, cache=None
        )

    def test_stacked_equals_unstacked(self):
        """The sweep `repro run all` runs per model -- the Fig 11
        variants and two Fig 19 row geometries at two progress points:
        stacked over cache-shared workloads == per-phase over cold
        builds."""
        configs = {
            "paper": fpraker_paper_config(),
            "zero": _variant_config("zero"),
            "zero+bdc": _variant_config("zero+bdc"),
            "rows 4": _rows_config(4),
            "rows 16": _rows_config(16),
        }
        cache = WorkloadCache()
        for progress in (0.5, 0.8):
            for name, config in configs.items():
                sim = AcceleratorSimulator(
                    config, sample_strips=2, sample_steps=8
                )
                shared = build_workloads("NCF", progress=progress, cache=cache)
                gibbs_cache_clear()
                cold = build_workloads("NCF", progress=progress, cache=None)
                stacked = sim.simulate_workload(shared)
                assert _phase_dicts(stacked.phases) == _phase_dicts(
                    sim.simulate_phase(workload) for workload in cold
                ), (name, progress)

    def test_stacked_equals_serial_reference(self):
        """Reduced sampling and the default 8 strips x 32 steps."""
        workloads = self._workloads()
        for sampling in ({"sample_strips": 2, "sample_steps": 8}, {}):
            sim = AcceleratorSimulator(**sampling)
            stacked = sim.simulate_workload(workloads)
            assert _phase_dicts(stacked.phases) == _phase_dicts(
                _serial_reference(sim, workload) for workload in workloads
            ), sampling

    def test_mixed_tile_configs_group_correctly(self):
        """Per-layer accumulator overrides split phases into distinct
        stacks; results still match the unstacked path."""
        from repro.models.zoo import get_model

        layers = [layer.name for layer in get_model("NCF").layers]
        profile = {layers[0]: 9, layers[1]: 15}
        workloads = self._workloads(acc_profile=profile)
        sim = AcceleratorSimulator()
        assert _phase_dicts(
            sim.simulate_workload(workloads).phases
        ) == _phase_dicts(sim.simulate_phase(w) for w in workloads)

    def test_chunking_boundary(self):
        """A tiny stack cap forces multiple chunked engine calls."""
        workloads = self._workloads()
        small = AcceleratorSimulator()
        small._MAX_STACK_ROWS = 1  # one phase per call, degenerate cap
        large = AcceleratorSimulator()
        assert (
            small.simulate_workload(workloads).to_dict()
            == large.simulate_workload(workloads).to_dict()
        )

    def test_pragmatic_stacking(self):
        workloads = self._workloads()
        sim = PragmaticFPAccelerator()
        assert _phase_dicts(
            sim.simulate_workload(workloads).phases
        ) == _phase_dicts(sim.simulate_phase(w) for w in workloads)


def _phase_workload(seed, sparsity=0.4, size=2048):
    rng = np.random.default_rng(seed)
    values_a = bf16_quantize(rng.normal(0, 1, size))
    values_a[rng.random(size) < sparsity] = 0.0
    values_b = bf16_quantize(rng.normal(0, 1, size))
    return PhaseWorkload(
        model="prop",
        layer="l0",
        phase="AxW",
        macs=4_000_000,
        reduction=512,
        tensor_a="A",
        tensor_b="W",
        values_a=values_a,
        values_b=values_b,
        input_bytes=1e6,
        output_bytes=2.5e5,
    )


class TestAcceleratorEngines:
    """`simulate_phase`'s batched pass == the per-strip reference loop
    over the same operand draw."""

    @pytest.mark.parametrize("cls", [AcceleratorSimulator, PragmaticFPAccelerator])
    def test_engines_bit_identical(self, cls):
        workload = _phase_workload(3)
        sim = cls()
        batched = sim.simulate_phase(workload)
        assert codec.to_dict(batched) == codec.to_dict(
            _serial_reference(sim, workload)
        )

    def test_engines_identical_on_empty_streams(self):
        workload = _phase_workload(4)
        workload.values_a = np.array([])
        workload.values_b = np.array([])
        sim = AcceleratorSimulator(sample_strips=2, sample_steps=8)
        batched = sim.simulate_phase(workload)
        assert codec.to_dict(batched) == codec.to_dict(
            _serial_reference(sim, workload)
        )

    def test_engines_identical_on_zero_streams(self):
        workload = _phase_workload(5)
        workload.values_a = np.zeros(512)
        workload.values_b = np.zeros(512)
        sim = AcceleratorSimulator(sample_strips=2, sample_steps=8)
        batched = sim.simulate_phase(workload)
        assert codec.to_dict(batched) == codec.to_dict(
            _serial_reference(sim, workload)
        )
