"""Tests for exponent base-delta compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base_delta import (
    GROUP_SIZE,
    HEADER_BITS,
    BASE_BITS,
    RAW_EXP_BITS,
    compress_exponents,
    compression_summary,
    compress_tensor_bytes,
    decompress_exponents,
    exponent_fields,
    exponent_footprint_bits,
)
from repro.fp.bfloat16 import bf16_quantize


class TestExponentFields:
    def test_known_fields(self):
        fields = exponent_fields(np.array([1.0, 2.0, 0.5, 0.0]))
        assert list(fields) == [127, 128, 126, 0]


class TestCompressRoundtrip:
    def test_uniform_group_zero_width(self):
        exps = np.full(GROUP_SIZE, 130)
        groups = compress_exponents(exps)
        assert len(groups) == 1
        assert groups[0].precision == 0
        assert groups[0].bits == HEADER_BITS + BASE_BITS

    def test_roundtrip_exact(self, rng):
        exps = rng.integers(100, 140, 256)
        groups = compress_exponents(exps)
        back = decompress_exponents(groups, 256)
        assert np.array_equal(back, exps)

    def test_roundtrip_with_escape(self, rng):
        exps = rng.integers(0, 256, 256)  # wild spread: groups escape
        groups = compress_exponents(exps)
        back = decompress_exponents(groups, 256)
        assert np.array_equal(back, exps)

    def test_partial_group_padding(self, rng):
        exps = rng.integers(120, 130, 40)  # not a multiple of 32
        groups = compress_exponents(exps)
        back = decompress_exponents(groups, 40)
        assert np.array_equal(back, exps)

    def test_empty(self):
        assert compress_exponents(np.zeros(0, dtype=np.int64)) == []
        assert decompress_exponents([], 0).size == 0

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, exps):
        arr = np.asarray(exps, dtype=np.int64)
        back = decompress_exponents(compress_exponents(arr), arr.size)
        assert np.array_equal(back, arr)


class TestZeroMask:
    def test_zero_values_do_not_widen(self):
        """A group of similar exponents plus zero values must compress
        as if the zeros were absent."""
        exps = np.full(GROUP_SIZE, 125)
        exps[::4] = 0  # zero values carry exponent field 0
        mask = exps == 0
        with_mask = exponent_footprint_bits(exps, mask)
        without = exponent_footprint_bits(exps, None)
        assert with_mask == HEADER_BITS + BASE_BITS  # width 0
        assert without > with_mask  # unmasked zeros force an escape

    def test_nonzero_positions_roundtrip(self, rng):
        exps = rng.integers(110, 126, 64)
        mask = rng.random(64) < 0.5
        exps = np.where(mask, 0, exps)
        groups = compress_exponents(exps, mask)
        back = decompress_exponents(groups, 64)
        assert np.array_equal(back[~mask], exps[~mask])

    def test_all_zero_group(self):
        exps = np.zeros(GROUP_SIZE, dtype=np.int64)
        groups = compress_exponents(exps, np.ones(GROUP_SIZE, dtype=bool))
        assert groups[0].precision == 0

    def test_mask_size_validation(self):
        with pytest.raises(ValueError):
            compress_exponents(np.zeros(8, dtype=np.int64), np.zeros(4, dtype=bool))


class TestWidths:
    def test_delta_within_precision(self, rng):
        exps = rng.integers(100, 140, 512)
        for group in compress_exponents(exps):
            if group.precision >= RAW_EXP_BITS:
                continue
            width = group.precision
            if width == 0:
                assert np.all(group.deltas == 0)
            else:
                lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
                assert group.deltas.min() >= lo
                assert group.deltas.max() <= hi

    def test_escape_when_wide(self):
        exps = np.zeros(GROUP_SIZE, dtype=np.int64)
        exps[1] = 255
        group = compress_exponents(exps)[0]
        assert group.precision == RAW_EXP_BITS
        assert group.bits == HEADER_BITS + BASE_BITS + GROUP_SIZE * RAW_EXP_BITS

    def test_never_worse_than_raw_plus_header(self, rng):
        exps = rng.integers(0, 256, 4096)
        bits = exponent_footprint_bits(exps)
        raw = 4096 * RAW_EXP_BITS
        overhead = (4096 // GROUP_SIZE) * (HEADER_BITS + BASE_BITS)
        assert bits <= raw + overhead


class TestCompressionSummary:
    def test_correlated_stream_compresses_well(self, rng):
        """Clustered exponents (the training-tensor case) compress far
        better than white noise."""
        clustered = bf16_quantize(rng.normal(0, 1, 8192) * 0.5)
        wild = bf16_quantize(
            rng.normal(0, 1, 8192) * 2.0 ** rng.integers(-60, 60, 8192)
        )
        tight = compression_summary(clustered)
        loose = compression_summary(wild)
        assert tight.exponent_ratio < loose.exponent_ratio
        assert tight.exponent_ratio < 0.75

    def test_total_ratio_bounds(self, rng):
        values = bf16_quantize(rng.normal(0, 1, 4096))
        summary = compression_summary(values)
        assert 0.5 < summary.total_ratio <= 1.1
        assert summary.bytes_raw == 8192.0

    def test_compress_tensor_bytes(self, rng):
        values = bf16_quantize(rng.normal(0, 1, 1024))
        assert compress_tensor_bytes(values) == compression_summary(values).bytes_compressed

    def test_sparse_tensor_not_penalized(self, rng):
        """Zeros must not destroy compression (their exponent bytes are
        don't-cares)."""
        dense = bf16_quantize(rng.normal(0, 1, 8192) * 0.5)
        sparse = dense.copy()
        sparse[rng.random(8192) < 0.5] = 0.0
        assert (
            compression_summary(sparse).exponent_ratio
            <= compression_summary(dense).exponent_ratio + 0.05
        )


class TestBitstream:
    def test_pack_unpack_roundtrip(self, rng):
        from repro.compression.base_delta import pack_groups, unpack_groups

        exps = rng.integers(100, 140, 256)
        groups = compress_exponents(exps)
        data = pack_groups(groups)
        back = unpack_groups(data, len(groups))
        restored = decompress_exponents(back, 256)
        assert np.array_equal(restored, exps)

    def test_pack_unpack_with_raw_escape(self, rng):
        from repro.compression.base_delta import pack_groups, unpack_groups

        exps = rng.integers(0, 256, 128)  # forces raw groups
        groups = compress_exponents(exps)
        data = pack_groups(groups)
        restored = decompress_exponents(unpack_groups(data, len(groups)), 128)
        assert np.array_equal(restored, exps)

    def test_stream_size_matches_bit_accounting(self, rng):
        from repro.compression.base_delta import pack_groups

        exps = rng.integers(110, 135, 1024)
        groups = compress_exponents(exps)
        # The serializer spends one extra header bit per group vs the
        # 3-bit hardware field; otherwise sizes must agree.
        accounted_bits = sum(g.bits for g in groups) + len(groups)
        data = pack_groups(groups)
        assert len(data) == -(-accounted_bits // 8)

    def test_compression_is_physically_real(self, rng):
        """The packed stream of a training-like tensor is genuinely
        smaller than the raw exponent bytes."""
        from repro.compression.base_delta import pack_groups
        from repro.traces.calibration import get_calibration
        from repro.traces.synthetic import generate_tensor

        values = generate_tensor(
            get_calibration("VGG16").activations, 32 * 256, rng
        )
        exps = exponent_fields(values)
        groups = compress_exponents(exps, values == 0.0)
        data = pack_groups(groups)
        assert len(data) < 0.7 * exps.size  # raw would be exps.size bytes
