"""Tests for the generic softfloat formats and RNE quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.softfloat import (
    BFLOAT16,
    FP16,
    FP32,
    compose,
    decompose,
    quantize,
    round_significand,
    ulp,
)


class TestFloatFormat:
    def test_bfloat16_geometry(self):
        assert BFLOAT16.bias == 127
        assert BFLOAT16.emax == 127
        assert BFLOAT16.emin == -126
        assert BFLOAT16.total_bits == 16

    def test_fp32_geometry(self):
        assert FP32.bias == 127
        assert FP32.man_bits == 23
        assert FP32.total_bits == 32

    def test_fp16_geometry(self):
        assert FP16.bias == 15
        assert FP16.emax == 15
        assert FP16.total_bits == 16

    def test_max_value_bf16(self):
        # bfloat16 max: (2 - 2^-7) * 2^127.
        assert BFLOAT16.max_value == (2.0 - 2.0**-7) * 2.0**127

    def test_min_normal(self):
        assert BFLOAT16.min_normal == 2.0**-126

    def test_str(self):
        assert "e8m7" in str(BFLOAT16)


class TestQuantize:
    def test_exact_values_unchanged(self):
        values = np.array([1.0, -2.0, 0.5, 1.5, 0.0, 96.0])
        assert np.array_equal(quantize(values, BFLOAT16), values)

    def test_one_is_one(self):
        assert quantize(1.0, BFLOAT16) == 1.0

    def test_rounds_to_nearest(self):
        # 1 + 2^-8 is exactly halfway between 1.0 and 1 + 2^-7: RNE
        # picks the even significand, 1.0.
        assert quantize(1.0 + 2.0**-8, BFLOAT16) == 1.0
        # 1 + 3 * 2^-8 is halfway between 1+2^-7 and 1+2^-6: even is
        # 1 + 2^-6 (significand ...10).
        assert quantize(1.0 + 3.0 * 2.0**-8, BFLOAT16) == 1.0 + 2.0**-6

    def test_carry_into_next_exponent(self):
        # Just below 2.0 rounds up across the binade boundary.
        assert quantize(2.0 - 2.0**-9, BFLOAT16) == 2.0

    def test_denormal_flush(self):
        tiny = 2.0**-130
        assert quantize(tiny, BFLOAT16) == 0.0
        assert quantize(-tiny, BFLOAT16) == 0.0

    def test_overflow_inf(self):
        assert np.isinf(quantize(1e39, BFLOAT16, overflow="inf"))

    def test_overflow_sat(self):
        assert quantize(1e39, BFLOAT16, overflow="sat") == BFLOAT16.max_value

    def test_overflow_mode_validation(self):
        with pytest.raises(ValueError):
            quantize(1.0, BFLOAT16, overflow="wrap")

    def test_nan_propagates(self):
        out = quantize(np.array([np.nan]), BFLOAT16)
        assert np.isnan(out[0])

    def test_inf_propagates(self):
        out = quantize(np.array([np.inf, -np.inf]), BFLOAT16)
        assert np.isinf(out).all()

    def test_matches_hardware_rounding_trick(self, rng):
        """Cross-check against the float32-truncation RNE bit trick."""
        x = rng.normal(0, 10, 50000)
        q = quantize(x, BFLOAT16)
        u = x.astype(np.float32).view(np.uint32)
        bias = ((u >> 16) & 1) + 0x7FFF
        bits = ((u + bias) >> 16).astype(np.uint16)
        ref = (np.asarray(bits, dtype=np.uint32) << 16).view(np.float32)
        assert np.array_equal(q, ref.astype(np.float64))

    def test_error_within_half_ulp(self, rng):
        x = rng.uniform(0.5, 4.0, 1000)
        q = quantize(x, BFLOAT16)
        for xi, qi in zip(x, q):
            assert abs(xi - qi) <= ulp(qi, BFLOAT16) / 2 + 1e-30

    @given(st.floats(min_value=-1e30, max_value=1e30, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, x):
        once = float(quantize(x, BFLOAT16))
        twice = float(quantize(once, BFLOAT16))
        assert once == twice

    @given(st.floats(min_value=1e-30, max_value=1e30))
    @settings(max_examples=300, deadline=None)
    def test_sign_symmetric(self, x):
        assert float(quantize(-x, BFLOAT16)) == -float(quantize(x, BFLOAT16))

    @given(
        st.floats(min_value=1e-20, max_value=1e20),
        st.floats(min_value=1e-20, max_value=1e20),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert float(quantize(lo, BFLOAT16)) <= float(quantize(hi, BFLOAT16))


class TestDecomposeCompose:
    def test_roundtrip(self, rng):
        values = quantize(rng.normal(0, 100, 2000), BFLOAT16)
        sign, exp, man, is_zero = decompose(values, BFLOAT16)
        back = compose(sign, exp, man, BFLOAT16)
        assert np.array_equal(back, values)

    def test_hidden_bit_range(self, rng):
        values = quantize(rng.normal(0, 5, 2000), BFLOAT16)
        _, _, man, is_zero = decompose(values, BFLOAT16)
        live = man[~is_zero]
        assert live.min() >= 128
        assert live.max() <= 255

    def test_zero_fields(self):
        sign, exp, man, is_zero = decompose(np.array([0.0, 1.0]), BFLOAT16)
        assert bool(is_zero[0]) and not bool(is_zero[1])
        assert man[0] == 0
        assert exp[0] == 0

    def test_known_value(self):
        # 1.5 = significand 1.1000000 -> 192, exponent 0.
        sign, exp, man, _ = decompose(np.array([1.5]), BFLOAT16)
        assert (sign[0], exp[0], man[0]) == (0, 0, 192)

    def test_negative_sign_bit(self):
        sign, _, _, _ = decompose(np.array([-3.0]), BFLOAT16)
        assert sign[0] == 1


class TestRoundSignificand:
    def test_identity_for_representable(self):
        assert round_significand(np.array([1.5]), 7)[0] == 1.5

    def test_narrows(self):
        # 1 + 2^-12 rounds away at 4 fractional bits.
        assert round_significand(np.array([1.0 + 2.0**-12]), 4)[0] == 1.0

    def test_ties_to_even(self):
        # 1 + 2^-5 at 4 bits: halfway -> even -> 1.0.
        assert round_significand(np.array([1.0 + 2.0**-5]), 4)[0] == 1.0
        # 1 + 3*2^-5 at 4 bits: halfway -> even -> 1 + 2^-3... check
        # against python round-half-even on the scaled significand.
        value = 1.0 + 3.0 * 2.0**-5
        out = round_significand(np.array([value]), 4)[0]
        assert out == 1.0 + 2.0**-3

    def test_any_exponent(self):
        x = np.array([3.14159e-20, 2.71828e20])
        out = round_significand(x, 12)
        assert np.all(np.abs(out - x) <= np.abs(x) * 2.0**-12)

    def test_zero(self):
        assert round_significand(np.array([0.0]), 12)[0] == 0.0

    @given(st.floats(min_value=1e-15, max_value=1e15), st.integers(4, 20))
    @settings(max_examples=200, deadline=None)
    def test_relative_error_bound(self, x, bits):
        out = float(round_significand(np.array([x]), bits)[0])
        assert abs(out - x) <= x * 2.0 ** (-bits)


class TestUlp:
    def test_ulp_of_one(self):
        assert ulp(1.0, BFLOAT16) == 2.0**-7

    def test_ulp_scales_with_binade(self):
        assert ulp(2.0, BFLOAT16) == 2.0 * ulp(1.0, BFLOAT16)

    def test_ulp_of_zero(self):
        assert ulp(0.0, BFLOAT16) > 0.0
