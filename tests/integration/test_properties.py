"""Cross-module property tests (hypothesis): the invariants that tie the
arithmetic, encoding, scheduling and memory layers together."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PEConfig
from repro.core.pe import FPRakerPE
from repro.core.schedule import schedule_groups
from repro.fp.accumulator import (
    AccumulatorSpec,
    ExtendedAccumulator,
    exact_product,
)
from repro.fp.bfloat16 import bf16_quantize
from repro.nn.fpmath import EngineConfig, MatmulEngine

# Strategy: bfloat16-representable finite values over a wide range.
bf16_values = st.floats(
    min_value=-(2.0**20), max_value=2.0**20, allow_nan=False
).map(lambda x: float(bf16_quantize(x)))

groups = st.lists(
    st.tuples(bf16_values, bf16_values), min_size=1, max_size=8
)


class TestPEArithmeticProperties:
    @given(groups)
    @settings(max_examples=200, deadline=None)
    def test_pe_without_ob_matches_reference(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        pe = FPRakerPE(PEConfig(ob_skip=False))
        pe.process_group(a, b)
        reference = ExtendedAccumulator()
        reference.accumulate([exact_product(x, y) for x, y in zip(a, b)])
        assert pe.value() == reference.value()

    @given(groups)
    @settings(max_examples=200, deadline=None)
    def test_ob_error_below_grid_scale(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        pe = FPRakerPE(PEConfig(ob_skip=True))
        pe.process_group(a, b)
        reference = ExtendedAccumulator()
        reference.accumulate([exact_product(x, y) for x, y in zip(a, b)])
        products = [x * y for x, y in zip(a, b) if x * y != 0.0]
        if not products:
            assert pe.value() == reference.value()
            return
        emax = int(np.floor(np.log2(max(abs(p) for p in products)))) + 1
        grid = 2.0 ** (emax - AccumulatorSpec().frac_bits)
        assert abs(pe.value() - reference.value()) <= 16 * grid

    @given(groups, st.integers(4, 12))
    @settings(max_examples=100, deadline=None)
    def test_narrower_accumulator_never_slower(self, pairs, frac_bits):
        """Shrinking the accumulator only raises the OB threshold's
        bite: cycles cannot increase."""
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        wide = FPRakerPE(
            PEConfig(accumulator=AccumulatorSpec(frac_bits=12))
        ).process_group(a, b)
        narrow = FPRakerPE(
            PEConfig(accumulator=AccumulatorSpec(frac_bits=frac_bits))
        ).process_group(a, b)
        assert narrow.cycles <= wide.cycles

    @given(groups)
    @settings(max_examples=100, deadline=None)
    def test_scalar_vs_vectorized_schedule(self, pairs):
        a = np.array([[p[0] for p in pairs] + [0.0] * (8 - len(pairs))])
        b = np.array([[p[1] for p in pairs] + [0.0] * (8 - len(pairs))])
        trace = FPRakerPE().process_group(a[0], b[0])
        result = schedule_groups(a, b)
        assert trace.cycles == result.cycles[0]
        assert trace.terms_processed == result.terms_processed[0].sum()


class TestEngineProperties:
    @given(
        st.integers(1, 4),
        st.integers(8, 40),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_bf16_engine_matches_reference_everywhere(self, m, k, n, seed):
        from repro.fp.accumulator import dot_reference

        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, (m, k)) * 2.0 ** rng.integers(-10, 10, (m, k))
        b = rng.normal(0, 1, (k, n))
        out = MatmulEngine(EngineConfig(mode="bf16")).matmul(a, b)
        for i in range(m):
            for j in range(n):
                assert out[i, j] == dot_reference(a[i], b[:, j])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fpraker_engine_linearity_in_scaling(self, seed):
        """Scaling both operands by powers of two scales the result
        exactly (the arithmetic is exponent-shift invariant)."""
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, (2, 16))
        b = rng.normal(0, 1, (16, 2))
        engine = MatmulEngine(EngineConfig(mode="fpraker"))
        base = engine.matmul(a, b)
        scaled = engine.matmul(a * 4.0, b * 8.0)
        assert np.array_equal(scaled, base * 32.0)


class TestMemoryProperties:
    @given(
        st.integers(1, 50),
        st.integers(1, 4),
        st.integers(1, 50),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_container_roundtrip(self, c, r, k, seed):
        from repro.memory.container import pack_containers, unpack_containers

        rng = np.random.default_rng(seed)
        tensor = bf16_quantize(rng.normal(0, 3, (c, r, k)))
        back = unpack_containers(pack_containers(tensor), tensor.shape)
        assert np.array_equal(back, tensor)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_transposer_property(self, rows8, cols8, seed):
        from repro.memory.transposer import transpose_blocks

        rng = np.random.default_rng(seed)
        matrix = rng.normal(0, 1, (8 * rows8, 8 * cols8))
        assert np.array_equal(transpose_blocks(matrix), matrix.T)


class TestCompressionProperties:
    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=300),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_masked_roundtrip(self, exps, seed):
        from repro.compression.base_delta import (
            compress_exponents,
            decompress_exponents,
        )

        rng = np.random.default_rng(seed)
        arr = np.asarray(exps, dtype=np.int64)
        mask = rng.random(arr.size) < 0.3
        arr = np.where(mask, 0, arr)
        back = decompress_exponents(compress_exponents(arr, mask), arr.size)
        assert np.array_equal(back[~mask], arr[~mask])
