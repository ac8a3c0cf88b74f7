"""Tests for the motivation-figure analyses (Figs 1, 2, 6)."""

import numpy as np
import pytest

from repro.analysis.exponents import exponent_range_covered
from repro.analysis.potential import (
    model_potential_speedups,
    phase_potential_speedup,
)
from repro.analysis.sparsity import model_sparsity_report
from repro.fp.bfloat16 import bf16_quantize


class TestSparsityReports:
    def test_report_matches_calibration(self):
        from repro.traces.calibration import get_calibration

        report = model_sparsity_report("VGG16", sample_size=30000)
        calibration = get_calibration("VGG16")
        for tensor in ("A", "W", "G"):
            stats = calibration.for_tensor(tensor)
            assert report.value[tensor] == pytest.approx(
                stats.value_sparsity, abs=0.02
            )
            assert report.term[tensor] == pytest.approx(
                stats.term_sparsity, abs=0.02
            )

    def test_term_sparsity_exceeds_value_sparsity(self):
        """The paper's central observation: term sparsity is much higher
        than value sparsity, for every tensor of every model."""
        for model in ("VGG16", "SNLI", "Bert", "NCF"):
            report = model_sparsity_report(model)
            for tensor in ("A", "W", "G"):
                assert report.term[tensor] > report.value[tensor]

    def test_nlp_models_have_low_value_sparsity(self):
        for model in ("SNLI", "Bert"):
            report = model_sparsity_report(model, sample_size=20000)
            assert report.value["W"] < 0.1

    def test_deterministic(self):
        r1 = model_sparsity_report("NCF", sample_size=10000, seed=4)
        r2 = model_sparsity_report("NCF", sample_size=10000, seed=4)
        assert r1.value == r2.value


class TestPotential:
    def test_ncf_axg_towers(self):
        """Fig 2's skyline: NCF's weight-gradient phase has by far the
        largest ideal speedup (sparse embedding gradients)."""
        ncf = model_potential_speedups("NCF", sample_size=30000)
        assert ncf["AxG"] > 20.0
        vgg = model_potential_speedups("VGG16", sample_size=30000)
        assert ncf["AxG"] > 3 * max(vgg.values())

    def test_potential_at_least_one(self):
        for model in ("VGG16", "Bert", "ResNet18-Q"):
            for value in model_potential_speedups(model, sample_size=20000).values():
                assert value >= 1.0

    def test_quantized_model_high_potential(self):
        q = model_potential_speedups("ResNet18-Q", sample_size=20000)
        assert q["AxW"] > 5.0

    def test_serial_side_choice_is_best(self):
        """The phase potential uses the better of the two tensors."""
        pot = phase_potential_speedup("NCF", "GxW", sample_size=20000)
        # G is far sparser than W for NCF, so the potential must reflect
        # G's term count, not W's.
        assert pot > 10.0


class TestExponentAnalysis:
    def test_range_covered_narrow_for_training_values(self, rng):
        """The paper's Fig 6 point: a few dozen exponent values hold
        nearly all the mass, out of the format's 256."""
        values = bf16_quantize(rng.normal(0, 1, 50000))
        width = exponent_range_covered(values, mass=0.99)
        assert 0 < width < 40

    def test_range_covered_grows_with_spread(self, rng):
        tight = bf16_quantize(rng.normal(0, 1, 20000))
        wild = bf16_quantize(
            rng.normal(0, 1, 20000) * 2.0 ** rng.integers(-40, 40, 20000)
        )
        assert exponent_range_covered(wild) > exponent_range_covered(tight)

    def test_range_covered_all_zero(self):
        assert exponent_range_covered(np.zeros(100)) == 0
