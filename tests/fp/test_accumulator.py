"""Tests for the extended-precision accumulator (the golden reference)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.accumulator import (
    AccumulatorSpec,
    ChunkAccumulator,
    ExtendedAccumulator,
    dot_reference,
    exact_product,
    rne_shift_right,
)
from repro.fp.bfloat16 import bf16_quantize


class TestRneShiftRight:
    def test_no_shift(self):
        assert rne_shift_right(42, 0) == 42

    def test_negative_shift_is_left_shift(self):
        assert rne_shift_right(3, -2) == 12

    def test_exact_division(self):
        assert rne_shift_right(8, 2) == 2

    def test_round_up(self):
        assert rne_shift_right(7, 2) == 2  # 1.75 -> 2

    def test_round_down(self):
        assert rne_shift_right(5, 2) == 1  # 1.25 -> 1

    def test_tie_to_even_down(self):
        assert rne_shift_right(2, 2) == 0  # 0.5 -> 0 (even)

    def test_tie_to_even_up(self):
        assert rne_shift_right(6, 2) == 2  # 1.5 -> 2 (even)

    def test_negative_values_symmetric(self):
        for v in range(-64, 65):
            for s in range(0, 5):
                assert rne_shift_right(-v, s) == -rne_shift_right(v, s)

    @given(st.integers(-(2**40), 2**40), st.integers(0, 30))
    @settings(max_examples=500, deadline=None)
    def test_matches_fraction_rounding(self, value, shift):
        """RNE shift must equal exact rational rounding half-to-even."""
        exact = Fraction(value, 1 << shift)
        floor = exact.numerator // exact.denominator
        rem = exact - floor
        if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and floor % 2):
            expected = floor + 1
        else:
            expected = floor
        assert rne_shift_right(value, shift) == expected


class TestExactProduct:
    def test_simple(self):
        p = exact_product(1.5, 2.0)
        assert p.value() == 3.0

    def test_zero_operand(self):
        assert exact_product(0.0, 5.0).is_zero
        assert exact_product(5.0, 0.0).is_zero

    def test_sign_rules(self):
        assert exact_product(-1.5, 2.0).sign == -1
        assert exact_product(-1.5, -2.0).sign == 1

    def test_exactness_random(self, rng):
        a = bf16_quantize(rng.normal(0, 10, 500))
        b = bf16_quantize(rng.normal(0, 10, 500))
        for x, y in zip(a, b):
            assert exact_product(x, y).value() == x * y

    def test_significand_range(self, rng):
        a = bf16_quantize(rng.uniform(1, 100, 200))
        b = bf16_quantize(rng.uniform(1, 100, 200))
        for x, y in zip(a, b):
            p = exact_product(x, y)
            # P * 2^-14 lies in [1, 4).
            assert (1 << 14) <= p.sig < (1 << 16)


class TestExtendedAccumulator:
    def test_starts_at_zero(self):
        acc = ExtendedAccumulator()
        assert acc.is_zero
        assert acc.value() == 0.0

    def test_single_product(self):
        acc = ExtendedAccumulator()
        acc.accumulate([exact_product(1.5, 2.0)])
        assert acc.value() == 3.0

    def test_normalized_invariant(self, rng):
        acc = ExtendedAccumulator()
        a = bf16_quantize(rng.normal(0, 2, 64))
        b = bf16_quantize(rng.normal(0, 2, 64))
        for i in range(0, 64, 8):
            acc.accumulate(
                [exact_product(x, y) for x, y in zip(a[i : i + 8], b[i : i + 8])]
            )
            if not acc.is_zero:
                frac = acc.spec.frac_bits
                assert (1 << frac) <= abs(acc.sig) < (1 << (frac + 1))

    def test_close_to_float_dot(self, rng):
        acc = ExtendedAccumulator()
        a = bf16_quantize(rng.normal(0, 1, 32))
        b = bf16_quantize(rng.normal(0, 1, 32))
        for i in range(0, 32, 8):
            acc.accumulate(
                [exact_product(x, y) for x, y in zip(a[i : i + 8], b[i : i + 8])]
            )
        exact = float(a @ b)
        # 12 fractional bits of a running sum: relative error stays small.
        assert abs(acc.value() - exact) <= max(abs(exact), 1.0) * 2.0**-8

    def test_cancellation_to_zero(self):
        acc = ExtendedAccumulator()
        acc.accumulate([exact_product(1.5, 2.0), exact_product(-1.5, 2.0)])
        assert acc.is_zero

    def test_all_zero_group_keeps_state(self):
        acc = ExtendedAccumulator()
        acc.accumulate([exact_product(1.0, 1.0)])
        before = acc.value()
        acc.accumulate([exact_product(0.0, 0.0)] * 8)
        assert acc.value() == before

    def test_swamping(self):
        """A tiny addend beyond the accumulator's reach is absorbed."""
        acc = ExtendedAccumulator()
        acc.accumulate([exact_product(1.0, 1.0)])
        acc.accumulate([exact_product(2.0**-40, 2.0**-40)])
        assert acc.value() == 1.0

    def test_read_bf16(self):
        acc = ExtendedAccumulator()
        acc.accumulate([exact_product(1.0, 1.0), exact_product(1.0, 2.0**-12)])
        # Extended value 1 + 2^-12 reads back as bfloat16 1.0.
        assert acc.read_bf16() == 1.0
        assert acc.value() == 1.0 + 2.0**-12

    def test_accumulate_exact_matches_products_path(self, rng):
        a = bf16_quantize(rng.normal(0, 1, 8))
        b = bf16_quantize(rng.normal(0, 1, 8))
        products = [exact_product(x, y) for x, y in zip(a, b)]
        acc1 = ExtendedAccumulator()
        acc1.accumulate(products)
        acc2 = ExtendedAccumulator()
        live = [p for p in products if not p.is_zero]
        emax = max(p.exp for p in live)
        acc2.accumulate_exact(
            [(p.sign * p.sig, p.exp - 14) for p in live], emax
        )
        assert acc1.value() == acc2.value()

    def test_reset(self):
        acc = ExtendedAccumulator()
        acc.accumulate([exact_product(3.0, 3.0)])
        acc.reset()
        assert acc.is_zero

    def test_narrow_spec_swamps_earlier(self):
        narrow = ExtendedAccumulator(AccumulatorSpec(frac_bits=4))
        wide = ExtendedAccumulator(AccumulatorSpec(frac_bits=12))
        groups = [
            [exact_product(1.0, 1.0)],
            [exact_product(1.0, 2.0**-6)],
        ]
        for g in groups:
            narrow.accumulate(g)
            wide.accumulate(g)
        assert narrow.value() == 1.0  # 2^-6 below 4 fractional bits
        assert wide.value() == 1.0 + 2.0**-6


class TestChunkAccumulator:
    def test_single_chunk_equals_inner(self, rng):
        a = bf16_quantize(rng.normal(0, 1, 32))
        b = bf16_quantize(rng.normal(0, 1, 32))
        chunk = ChunkAccumulator()
        inner = ExtendedAccumulator()
        for i in range(0, 32, 8):
            products = [
                exact_product(x, y) for x, y in zip(a[i : i + 8], b[i : i + 8])
            ]
            chunk.add_group(products)
            inner.accumulate(products)
        assert chunk.result() == float(np.float32(inner.value()))

    def test_flush_resets_inner(self, rng):
        chunk = ChunkAccumulator(AccumulatorSpec(chunk_size=16))
        a = bf16_quantize(rng.normal(0, 1, 16))
        b = bf16_quantize(rng.normal(0, 1, 16))
        for i in range(0, 16, 8):
            chunk.add_group(
                [exact_product(x, y) for x, y in zip(a[i : i + 8], b[i : i + 8])]
            )
        assert chunk.inner.is_zero  # flushed at exactly chunk_size MACs
        assert chunk.outer != 0.0

    def test_long_reduction_stability(self, rng):
        """Chunking keeps long reductions close to the fp64 result."""
        n = 1024
        a = bf16_quantize(rng.normal(0, 1, n))
        b = bf16_quantize(rng.normal(0, 1, n))
        result = dot_reference(a, b)
        exact = float(a @ b)
        scale = float(np.abs(a * b).sum())
        assert abs(result - exact) <= scale * 2.0**-9

    def test_reset(self):
        chunk = ChunkAccumulator()
        chunk.add_group([exact_product(1.0, 1.0)])
        chunk.reset()
        assert chunk.result() == 0.0

    def test_result_bf16(self):
        chunk = ChunkAccumulator()
        chunk.add_group([exact_product(1.5, 1.5)])
        assert chunk.result_bf16() == 2.25


class TestDotReference:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dot_reference(np.zeros(4), np.zeros(5))

    def test_zero_vectors(self):
        assert dot_reference(np.zeros(16), np.zeros(16)) == 0.0

    def test_matches_manual_small(self):
        a = np.array([1.0, 2.0, -1.5, 0.0])
        b = np.array([2.0, 0.5, 2.0, 9.0])
        assert dot_reference(a, b) == 1.0 + 2.0 - 3.0
