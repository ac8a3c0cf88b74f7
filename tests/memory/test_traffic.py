"""Unit tests for the vectorized memory-traffic engine."""

import json
import math

import numpy as np
import pytest

from repro import codec
from repro.core.workload import PhaseWorkload, StreamSpec
from repro.memory.container import CONTAINER_BYTES, container_count
from repro.memory.dram import DRAMModel
from repro.memory.traffic import (
    MemoryTrafficResult,
    phase_traffic,
    strided_burst_cycles,
    workload_traffic,
)


def _workload(streams=(), input_bytes=0.0, output_bytes=0.0):
    values = np.ones(64)
    return PhaseWorkload(
        model="m", layer="l", phase="AxW", macs=1000, reduction=10,
        tensor_a="A", tensor_b="W", values_a=values, values_b=values,
        input_bytes=input_bytes, output_bytes=output_bytes,
        streams=tuple(streams),
    )


class TestMemoryTrafficResult:
    def test_add_with_weight(self):
        a = MemoryTrafficResult(dram_bytes=10.0, bank_cycles=4.0)
        b = MemoryTrafficResult(dram_bytes=3.0, bank_cycles=1.0)
        a.add(b, weight=2.0)
        assert a.dram_bytes == 16.0
        assert a.bank_cycles == 6.0

    def test_json_round_trip_exact(self):
        result = MemoryTrafficResult(
            dram_bytes=1.1, containers=2.0, dram_cycles=3.3, gb_reads=4.0,
            gb_writes=5.0, bank_cycles=6.6, bank_conflict_cycles=0.7,
            transposer_blocks=8.0, transposer_cycles=9.9,
            scratchpad_bytes=10.1,
        )
        back = codec.from_dict(
            MemoryTrafficResult,
            json.loads(json.dumps(codec.to_dict(result))),
            "memory",
        )
        assert codec.to_dict(back) == codec.to_dict(result)

    def test_memory_cycles_is_binding_resource(self):
        result = MemoryTrafficResult(
            dram_cycles=5.0, bank_cycles=11.0, transposer_cycles=7.0
        )
        assert result.memory_cycles == 11.0


class TestStridedBurstValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            strided_burst_cycles(8, 10, banks=0)
        with pytest.raises(ValueError):
            strided_burst_cycles(8, 10, banks=9, access_bytes=0)

    def test_zero_accesses_cost_nothing(self):
        assert strided_burst_cycles(8, 0) == (0, 0)
        assert strided_burst_cycles(8, -5) == (0, 0)


class TestPhaseTraffic:
    def test_empty_workload_is_all_zero(self):
        traffic = phase_traffic(_workload())
        assert traffic == MemoryTrafficResult()
        assert traffic.memory_cycles == 0.0

    def test_fallback_streams_price_byte_totals(self):
        traffic = phase_traffic(
            _workload(input_bytes=1e6, output_bytes=2e5)
        )
        expected = math.ceil(1e6 / CONTAINER_BYTES) + math.ceil(
            2e5 / CONTAINER_BYTES
        )
        assert traffic.containers == expected
        assert traffic.dram_cycles >= DRAMModel().transfer_cycles(1.2e6, 600.0)

    def test_shaped_stream_includes_container_padding(self):
        # 33 channels pad to 64: containers cover 2x32x1x64 values even
        # though the raw tensor holds 33x1x40.
        shape = (33, 1, 40)
        volume = 2.0 * 33 * 1 * 40
        stream = StreamSpec(
            tensor="A", direction="read", volume_bytes=volume,
            dram_bytes=volume, shape=shape, copies=1.0,
        )
        traffic = phase_traffic(_workload([stream]))
        assert traffic.containers == container_count(shape)
        assert traffic.dram_bytes == container_count(shape) * CONTAINER_BYTES
        assert traffic.dram_bytes > volume

    def test_compression_ratio_scales_dram_only(self):
        stream = StreamSpec(
            tensor="A", direction="read", volume_bytes=4096.0,
            dram_bytes=4096.0,
        )
        plain = phase_traffic(_workload([stream]))
        packed = phase_traffic(_workload([stream]), compression_ratio=0.5)
        assert packed.dram_bytes == plain.dram_bytes / 2.0
        assert packed.scratchpad_bytes == plain.scratchpad_bytes
        assert packed.gb_reads == plain.gb_reads

    def test_on_chip_stream_skips_dram_but_sweeps_banks(self):
        stream = StreamSpec(
            tensor="A", direction="read", volume_bytes=4096.0, dram_bytes=0.0
        )
        traffic = phase_traffic(_workload([stream]))
        assert traffic.containers == 0.0
        assert traffic.dram_cycles == 0.0
        assert traffic.gb_reads == 4096 / 16
        assert traffic.bank_cycles > 0
        assert traffic.scratchpad_bytes == 4096.0

    def test_transposed_stream_occupies_transposers(self):
        stream = StreamSpec(
            tensor="W", direction="read", volume_bytes=128.0 * 10,
            transposed=True,
        )
        traffic = phase_traffic(_workload([stream]), transposer_units=1)
        assert traffic.transposer_blocks == 10.0
        assert traffic.transposer_cycles == 160.0

    def test_write_stream_sweeps_banks_without_conflicts(self):
        stream = StreamSpec(
            tensor="G", direction="write", volume_bytes=1440.0
        )
        traffic = phase_traffic(_workload([stream]))
        assert traffic.gb_writes == 90.0
        assert traffic.bank_cycles == 10.0  # 90 accesses over 9 banks
        assert traffic.bank_conflict_cycles == 0.0

    def test_conflicting_stride_accrues_stall_cycles(self):
        stream = StreamSpec(
            tensor="A", direction="read", volume_bytes=16.0 * 9 * 8,
            stride_values=3,  # 6-byte stride: misaligned line walk
        )
        traffic = phase_traffic(_workload([stream]))
        assert traffic.bank_conflict_cycles > 0


class TestWorkloadTraffic:
    def test_sums_phases_and_applies_ratio(self):
        stream = StreamSpec(
            tensor="A", direction="read", volume_bytes=4096.0,
            dram_bytes=4096.0,
        )
        workloads = [_workload([stream]), _workload([stream])]
        total = workload_traffic(workloads, ratio_of=lambda w: 0.5)
        single = phase_traffic(workloads[0], compression_ratio=0.5)
        assert total.dram_bytes == 2 * single.dram_bytes
        assert total.gb_reads == 2 * single.gb_reads
