"""Tests for calibration, synthetic generation, evolution, and workloads."""

import numpy as np
import pytest

from repro.core.workload import PHASES
from repro.encoding.booth import term_sparsity, value_sparsity
from repro.fp.bfloat16 import bf16_quantize
from repro.models.zoo import STUDIED_MODELS, get_model
from repro.traces.calibration import (
    CALIBRATIONS,
    TensorStats,
    get_calibration,
)
from repro.traces.evolution import calibration_at
from repro.traces.synthetic import generate_tensor, mantissas_with_mean_terms
from repro.traces.workloads import (
    ACTIVATION_BUFFER_BYTES,
    build_phase_workload,
    build_workloads,
)


class TestCalibrations:
    def test_all_studied_models_calibrated(self):
        for model in STUDIED_MODELS:
            get_calibration(model)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_calibration("GPT-5")

    def test_derived_term_sparsity_in_range(self):
        for calibration in CALIBRATIONS.values():
            for tensor in ("A", "W", "G"):
                stats = calibration.for_tensor(tensor)
                assert 0.0 < stats.term_sparsity < 1.0
                assert stats.exp_local_std <= stats.exp_std + 1e-9

    def test_resnet50_s2_has_weight_sparsity(self):
        """The dynamic-sparse-trained model is the only one with
        substantial weight sparsity (paper Fig 1a)."""
        s2 = get_calibration("ResNet50-S2").weights.value_sparsity
        for model in STUDIED_MODELS:
            if model != "ResNet50-S2":
                assert get_calibration(model).weights.value_sparsity < s2

    def test_ncf_gradients_sparsest(self):
        """NCF's embedding gradients tower over everything (Fig 2)."""
        ncf = get_calibration("NCF").gradients.value_sparsity
        assert ncf >= 0.9

    def test_quantized_model_has_fewest_terms(self):
        q = get_calibration("ResNet18-Q").activations.mean_terms_nonzero
        for model in ("VGG16", "SqueezeNet 1.1", "ResNet50-S2"):
            assert get_calibration(model).activations.mean_terms_nonzero > q

    def test_tensor_lookup(self):
        cal = get_calibration("VGG16")
        assert cal.for_tensor("I") is cal.activations
        with pytest.raises(KeyError):
            cal.for_tensor("Z")


class TestSyntheticGenerator:
    def test_matches_targets(self, rng):
        for model in ("VGG16", "ResNet18-Q", "NCF"):
            calibration = get_calibration(model)
            for tensor in ("A", "W", "G"):
                stats = calibration.for_tensor(tensor)
                values = generate_tensor(stats, 40000, rng)
                assert value_sparsity(values) == pytest.approx(
                    stats.value_sparsity, abs=0.02
                )
                assert term_sparsity(values) == pytest.approx(
                    stats.term_sparsity, abs=0.02
                )

    def test_bf16_exact(self, rng):
        values = generate_tensor(TensorStats(0.3, 2.5, -2.0, 3.0), 5000, rng)
        assert np.array_equal(bf16_quantize(values), values)

    def test_deterministic(self):
        stats = TensorStats(0.3, 2.5, -2.0, 3.0)
        v1 = generate_tensor(stats, 1000, np.random.default_rng(7))
        v2 = generate_tensor(stats, 1000, np.random.default_rng(7))
        assert np.array_equal(v1, v2)

    def test_exponent_mean(self, rng):
        from repro.core.schedule import operand_exponents

        stats = TensorStats(0.0, 3.0, -5.0, 2.0, 1.0)
        values = generate_tensor(stats, 40000, rng)
        exps = operand_exponents(values)
        assert float(exps.mean()) == pytest.approx(-5.0, abs=0.2)

    def test_group_correlation(self, rng):
        """Within-group exponent spread must be tighter than global."""
        from repro.core.schedule import operand_exponents

        stats = TensorStats(0.0, 3.0, -2.0, 3.0, exp_local_std=0.8)
        values = generate_tensor(stats, 32 * 2000, rng)
        exps = operand_exponents(values).reshape(-1, 32).astype(np.float64)
        within = exps.std(axis=1).mean()
        overall = exps.std()
        assert within < overall * 0.6

    def test_mantissa_mean_terms_solver(self, rng):
        from repro.encoding.booth import csd_encode

        for target in (1.2, 2.0, 3.0, 4.0):
            mans = mantissas_with_mean_terms(target, 30000, rng)
            counts = np.array([len(csd_encode(int(m))) for m in np.unique(mans)])
            mean = np.mean([len(csd_encode(int(m))) for m in mans[:5000]])
            assert mean == pytest.approx(target, abs=0.1)
            assert mans.min() >= 128 and mans.max() <= 255


class TestEvolution:
    def test_progress_bounds(self):
        with pytest.raises(ValueError):
            calibration_at("VGG16", 1.5)

    def test_endpoint_is_base(self):
        base = get_calibration("VGG16")
        late = calibration_at("VGG16", 1.0)
        assert late.weights == base.weights

    def test_vgg_densifies_late(self):
        early = calibration_at("VGG16", 0.2)
        late = calibration_at("VGG16", 0.9)
        assert (
            late.activations.mean_terms_nonzero
            > early.activations.mean_terms_nonzero
        )

    def test_resnet18q_sharpens_after_pact_settles(self):
        early = calibration_at("ResNet18-Q", 0.1)
        late = calibration_at("ResNet18-Q", 0.6)
        assert late.activations.mean_terms_nonzero < early.activations.mean_terms_nonzero

    def test_relu_sparsity_ramps_in(self):
        start = calibration_at("SqueezeNet 1.1", 0.0)
        settled = calibration_at("SqueezeNet 1.1", 0.5)
        assert start.activations.value_sparsity < settled.activations.value_sparsity

    def test_stable_models_flat(self):
        for progress in (0.2, 0.5, 0.9):
            assert calibration_at("Bert", progress) == calibration_at("Bert", 0.4)


class TestWorkloads:
    def test_structure(self):
        workloads = build_workloads("NCF", progress=0.5)
        spec = get_model("NCF")
        assert len(workloads) == len(spec.layers) * 3
        phases = {w.phase for w in workloads}
        assert phases == set(PHASES)

    def test_phase_tensor_names(self):
        for w in build_workloads("NCF"):
            if w.phase == "AxW":
                assert (w.tensor_a, w.tensor_b) == ("A", "W")
            elif w.phase == "GxW":
                assert (w.tensor_a, w.tensor_b) == ("G", "W")
            else:
                assert (w.tensor_a, w.tensor_b) == ("A", "G")

    def test_deterministic(self):
        w1 = build_workloads("NCF", seed=3)
        w2 = build_workloads("NCF", seed=3)
        for a, b in zip(w1, w2):
            assert np.array_equal(a.values_a, b.values_a)
            assert a.macs == b.macs

    def test_traffic_weights_always_stream(self):
        """Every AxW phase reads its weights from DRAM."""
        for w in build_workloads("NCF"):
            if w.phase == "AxW":
                layer = next(
                    l for l in get_model("NCF").layers if l.name == w.layer
                )
                assert w.input_bytes >= layer.weight_bytes()

    def test_small_model_activations_stay_on_chip(self):
        """NCF's activations fit the buffer: no activation traffic."""
        spec = get_model("NCF")
        assert spec.total_activation_bytes < ACTIVATION_BUFFER_BYTES
        for w in build_workloads("NCF"):
            if w.phase == "AxW":
                layer = next(l for l in spec.layers if l.name == w.layer)
                assert w.input_bytes == layer.weight_bytes()
                assert w.output_bytes == 0.0

    def test_big_model_activations_spill(self):
        """VGG16's activations exceed the buffer: they stream off-chip."""
        spec = get_model("VGG16")
        assert spec.total_activation_bytes > ACTIVATION_BUFFER_BYTES
        conv1 = [
            w for w in build_workloads("VGG16")
            if w.layer == "conv1_2" and w.phase == "AxW"
        ][0]
        layer = next(l for l in spec.layers if l.name == "conv1_2")
        assert conv1.output_bytes == layer.output_bytes(spec.batch)

    def test_acc_profile_wiring(self):
        profile = {"mlp1": 6}
        workloads = build_workloads("NCF", acc_profile=profile)
        for w in workloads:
            if w.layer == "mlp1":
                assert w.acc_frac_bits == 6
            else:
                assert w.acc_frac_bits is None
