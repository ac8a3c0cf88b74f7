"""Tests for the memory substrate: containers, transposers, buffers, DRAM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.bfloat16 import bf16_quantize
from repro.memory.buffers import GlobalBuffer, Scratchpad
from repro.memory.container import (
    CONTAINER_BYTES,
    CONTAINER_SIDE,
    container_count,
    containers_for_bytes,
    pack_containers,
    unpack_containers,
)
from repro.memory.dram import DRAMModel
from repro.memory.transposer import (
    BLOCK,
    CYCLES_PER_BLOCK,
    Transposer,
    transpose_blocks,
    transpose_throughput_cycles,
)


class TestContainers:
    def test_roundtrip_exact_multiple(self, rng):
        tensor = bf16_quantize(rng.normal(0, 5, (64, 3, 64)))
        containers = pack_containers(tensor)
        back = unpack_containers(containers, tensor.shape)
        assert np.array_equal(back, tensor)

    def test_roundtrip_with_padding(self, rng):
        tensor = bf16_quantize(rng.normal(0, 5, (33, 2, 50)))
        containers = pack_containers(tensor)
        back = unpack_containers(containers, tensor.shape)
        assert np.array_equal(back, tensor)

    def test_container_count_matches(self, rng):
        for shape in [(64, 3, 64), (33, 2, 50), (1, 1, 1), (32, 5, 32)]:
            tensor = np.zeros(shape)
            assert len(pack_containers(tensor)) == container_count(shape)

    def test_storage_order_channel_column_row(self, rng):
        tensor = bf16_quantize(rng.normal(0, 1, (64, 2, 64)))
        containers = pack_containers(tensor)
        keys = [(c.channel, c.column, c.row) for c in containers]
        assert keys == sorted(keys)

    def test_read_vector_is_channel_run(self, rng):
        tensor = bf16_quantize(rng.normal(0, 1, (32, 1, 32)))
        container = pack_containers(tensor)[0]
        vector = container.read_vector(8, 3)
        assert np.array_equal(vector, tensor[8:16, 0, 3])

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            pack_containers(np.zeros((4, 4)))

    def test_container_count_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            container_count((0, 1, 1))
        with pytest.raises(ValueError):
            container_count((1, -2, 1))

    def test_containers_for_bytes(self):
        assert containers_for_bytes(0) == 0
        assert containers_for_bytes(-10) == 0
        assert containers_for_bytes(float("nan")) == 0
        assert containers_for_bytes(1) == 1
        assert containers_for_bytes(CONTAINER_BYTES) == 1
        assert containers_for_bytes(CONTAINER_BYTES + 1) == 2
        # Fractional bytes (extrapolated traffic) still round up.
        assert containers_for_bytes(CONTAINER_BYTES + 0.5) == 2

    @given(
        st.integers(1, 40), st.integers(1, 3), st.integers(1, 40),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, c, r, k):
        rng = np.random.default_rng(c * 1000 + r * 100 + k)
        tensor = bf16_quantize(rng.normal(0, 2, (c, r, k)))
        back = unpack_containers(pack_containers(tensor), tensor.shape)
        assert np.array_equal(back, tensor)


class TestTransposer:
    def test_transpose_blocks_equals_numpy(self, rng):
        matrix = rng.normal(0, 1, (24, 16))
        assert np.array_equal(transpose_blocks(matrix), matrix.T)

    def test_protocol_errors(self):
        unit = Transposer()
        with pytest.raises(RuntimeError):
            unit.read_column(0)  # read before fill
        for i in range(BLOCK):
            unit.write_row(np.arange(8, dtype=np.float64))
        with pytest.raises(RuntimeError):
            unit.write_row(np.arange(8, dtype=np.float64))  # overfill
        with pytest.raises(ValueError):
            unit.read_column(8)

    def test_wrong_block_size(self):
        with pytest.raises(ValueError):
            Transposer().write_row(np.zeros(7))

    def test_non_multiple_dimensions_rejected(self):
        with pytest.raises(ValueError):
            transpose_blocks(np.zeros((9, 8)))

    def test_access_counts(self, rng):
        matrix = rng.normal(0, 1, (8, 8))
        unit = Transposer()
        for row in matrix:
            unit.write_row(row)
        unit.drain()
        assert unit.writes == 8
        assert unit.reads == 8


class TestGlobalBuffer:
    def test_capacity(self):
        gb = GlobalBuffer()
        assert gb.capacity_bytes == 9 * 4 * 1024 * 1024

    def test_odd_banks_avoid_stride_conflicts(self):
        """The paper gives the GB an odd bank count so stride-2 conv
        layers do not serialize on one bank."""
        odd = GlobalBuffer(banks=9)
        even = GlobalBuffer(banks=8)
        # Stride of 64 values (one bank line times 8): with 8 banks all
        # accesses hit bank 0; with 9 banks they spread.
        odd_cycles = odd.conflict_cycles(stride_values=64, accesses=72)
        even_cycles = even.conflict_cycles(stride_values=64, accesses=72)
        assert odd_cycles < even_cycles
        assert even_cycles == 72  # fully serialized

    def test_sequential_conflict_free(self):
        gb = GlobalBuffer(banks=9)
        cycles = gb.conflict_cycles(stride_values=8, accesses=9)
        assert cycles == 1

    def test_read_burst_counts(self):
        gb = GlobalBuffer(banks=4)
        cycles = gb.read_burst([0, 16, 32, 48])
        assert cycles == 1
        assert gb.reads == 4
        assert gb.conflicts == 0

    def test_scratchpad_counters(self):
        pad = Scratchpad()
        pad.read()
        pad.write()
        assert (pad.reads, pad.writes) == (1, 1)
        assert pad.capacity_bytes == 2048


class TestBufferEdgeCases:
    """Edge cases the event-level traffic engine exposed."""

    def test_read_burst_empty_address_list(self):
        gb = GlobalBuffer()
        assert gb.read_burst([]) == 0
        assert (gb.reads, gb.conflicts) == (0, 0)

    def test_conflict_cycles_zero_and_negative_accesses(self):
        gb = GlobalBuffer()
        assert gb.conflict_cycles(stride_values=8, accesses=0) == 0
        assert gb.conflict_cycles(stride_values=8, accesses=-3) == 0
        assert (gb.reads, gb.conflicts) == (0, 0)

    @pytest.mark.parametrize("stride", [0, 1, 7, 8, 64, 72])
    def test_single_access_costs_one_cycle(self, stride):
        gb = GlobalBuffer()
        assert gb.conflict_cycles(stride_values=stride, accesses=1) == 1
        assert gb.conflicts == 0

    def test_zero_stride_fully_serializes(self):
        gb = GlobalBuffer(banks=9)
        assert gb.conflict_cycles(stride_values=0, accesses=18) == 18
        assert gb.conflicts == 16  # every burst: 9 hits on one bank

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            GlobalBuffer(banks=0)
        with pytest.raises(ValueError):
            GlobalBuffer(access_bytes=0)

    def test_scratchpad_tracks_bytes(self):
        pad = Scratchpad()
        pad.read(32)
        pad.write()  # default 16 B
        assert (pad.bytes_read, pad.bytes_written) == (32.0, 16.0)

    def test_single_access_counters(self):
        gb = GlobalBuffer()
        gb.read(0)
        gb.write(16)
        assert (gb.reads, gb.writes) == (1, 1)


class TestTransposerThroughput:
    def test_zero_blocks_is_free(self):
        assert transpose_throughput_cycles(0) == 0.0
        assert transpose_throughput_cycles(-1.0) == 0.0
        assert transpose_throughput_cycles(float("nan")) == 0.0

    def test_single_unit_cost(self):
        assert transpose_throughput_cycles(3) == 3 * CYCLES_PER_BLOCK

    def test_units_divide_occupancy(self):
        one = transpose_throughput_cycles(144, units=1)
        many = transpose_throughput_cycles(144, units=144)
        assert one == 144 * many

    def test_invalid_units_rejected(self):
        with pytest.raises(ValueError):
            transpose_throughput_cycles(1, units=0)


class TestDRAM:
    def test_peak_bandwidth(self):
        dram = DRAMModel()
        # 4 channels x 3200 MT/s x 4 B = 51.2 GB/s.
        assert dram.peak_bandwidth_gbs == pytest.approx(51.2)

    def test_transfer_cycles_scale(self):
        dram = DRAMModel()
        one = dram.transfer_cycles(1e6, 600.0)
        two = dram.transfer_cycles(2e6, 600.0)
        assert two == pytest.approx(2 * one)

    def test_zero_bytes(self):
        assert DRAMModel().transfer_cycles(0.0, 600.0) == 0.0

    def test_degenerate_transfers_cost_zero_not_nan(self):
        dram = DRAMModel()
        assert dram.transfer_cycles(-128.0, 600.0) == 0.0
        assert dram.transfer_cycles(float("nan"), 600.0) == 0.0

    def test_bytes_per_cycle(self):
        dram = DRAMModel()
        expected = 51.2e9 * dram.efficiency / 600e6
        assert dram.bytes_per_cycle(600.0) == pytest.approx(expected)
