"""A worked PE example in the spirit of the paper's Fig 5.

The paper walks two lanes with 4-bit significands through the modified
PE: terms fire MSB-first, lanes whose alignment offset is farther than
the shift window from the round's base stall, and a narrow accumulator
lets the tail of a lane be skipped as out of bounds.  This test replays
the same scenario through our PE (which encodes significands in
canonical form rather than raw bits, so term counts differ) and checks
every qualitative behaviour of the figure.
"""

from repro.core.config import PEConfig
from repro.core.pe import FPRakerPE
from repro.fp.accumulator import AccumulatorSpec, ExtendedAccumulator, exact_product

# The paper's operands: A0 = 2^2 x 1.1101, B0 = 2^3 x 1.0011,
#                       A1 = 2^1 x 1.1011, B1 = 2^1 x 1.1010.
A0 = 2.0**2 * (1.0 + 0.5 + 0.25 + 0.0625)  # 1.1101b
B0 = 2.0**3 * (1.0 + 0.125 + 0.0625)  # 1.0011b
A1 = 2.0**1 * (1.0 + 0.5 + 0.125 + 0.0625)  # 1.1011b
B1 = 2.0**1 * (1.0 + 0.5 + 0.125)  # 1.1010b


class TestFig5Example:
    def test_operands_are_bf16_exact(self):
        from repro.fp.bfloat16 import bf16_quantize

        for x in (A0, B0, A1, B1):
            assert float(bf16_quantize(x)) == x

    def test_exact_result_without_skipping(self):
        pe = FPRakerPE(PEConfig(ob_skip=False))
        pe.process_group([A0, A1], [B0, B1])
        assert pe.value() == _reference_value()

    def test_lane_zero_has_larger_product_exponent(self):
        """ABe0 = 5 vs ABe1 = 2: lane 1's terms trail lane 0's."""
        pe = FPRakerPE(PEConfig(ob_skip=False))
        trace = pe.process_group([A0, A1], [B0, B1])
        # The 3-bit gap plus intra-lane spread forces at least one lane
        # to wait for the other at some round.
        assert trace.cycles >= max(
            trace.lane_useful[0], trace.lane_useful[1]
        )

    def test_narrow_accumulator_skips_tail(self):
        """With a 6-bit accumulator (the figure's illustration), lane
        1's deepest term is out of bounds and processing ends early."""
        wide = FPRakerPE(
            PEConfig(ob_skip=True, accumulator=AccumulatorSpec(frac_bits=12))
        )
        narrow = FPRakerPE(
            PEConfig(ob_skip=True, accumulator=AccumulatorSpec(frac_bits=6))
        )
        wide_trace = wide.process_group([A0, A1], [B0, B1])
        narrow_trace = narrow.process_group([A0, A1], [B0, B1])
        assert narrow_trace.terms_ob_skipped > wide_trace.terms_ob_skipped
        assert narrow_trace.cycles <= wide_trace.cycles

    def test_narrow_accumulator_result_close(self):
        """The skipped tail lies below the narrow accumulator's reach,
        so the result still matches the reference at that precision."""
        narrow_spec = AccumulatorSpec(frac_bits=6)
        pe = FPRakerPE(PEConfig(ob_skip=True, accumulator=narrow_spec))
        pe.process_group([A0, A1], [B0, B1])
        acc = ExtendedAccumulator(narrow_spec)
        acc.accumulate([exact_product(A0, B0), exact_product(A1, B1)])
        grid = 2.0 ** (6 - narrow_spec.frac_bits)  # emax=5 -> 2^(5-6)
        assert abs(pe.value() - acc.value()) <= 4 * grid

    def test_fig5_shift_window_is_three(self):
        assert PEConfig().shift_window == 3


def _reference_value() -> float:
    acc = ExtendedAccumulator()
    acc.accumulate([exact_product(A0, B0), exact_product(A1, B1)])
    return acc.value()
