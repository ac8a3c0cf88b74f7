"""Per-model tensor statistics calibrated to the paper's figures.

For every studied model, Figs 1a/1b of the paper report per-tensor value
sparsity and term sparsity, Fig 6 shows the exponent spread, and Fig 2
the per-phase work-reduction potential.  We encode each tensor as a
:class:`TensorStats` whose parameters reproduce those measurements:

* ``value_sparsity`` -- exact-zero fraction (Fig 1a);
* ``mean_terms_nonzero`` -- average CSD terms among nonzero values,
  chosen so the derived term sparsity
  ``1 - (1 - value_sparsity) * mean_terms_nonzero / 8``
  lands on Fig 1b's bar;
* ``exp_mean`` / ``exp_std`` -- global exponent location and spread
  (Fig 6 shows narrow spreads around small magnitudes for weights and
  activations and lower means for gradients);
* ``exp_local_std`` -- within-group-of-32 exponent spread, the quantity
  that sets the base-delta compression ratio (Fig 10): values that are
  neighbors in a tensor are spatially correlated, so their exponents
  cluster much tighter than the tensor-wide spread.

Notable calibration choices tied to paper observations:

* ResNet18-Q trains with 4-bit PACT, so its activation/weight mantissas
  carry very few terms (the paper's best convnet speedup, 2.04x);
* ResNet50-S2 trains with dynamic sparse reparameterization, so its
  *weights* are about half zeros -- the only model with weight sparsity;
* NCF's gradients are extremely sparse (only sampled embedding rows
  receive updates), producing the towering potential bar of Fig 2;
* the NLP-ish models have near-zero value sparsity but plenty of term
  sparsity, the paper's central observation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TensorStats:
    """Distribution parameters of one tensor of one model.

    Attributes:
        value_sparsity: probability of an exact zero.
        mean_terms_nonzero: average CSD terms among nonzero values
            (1.0 .. ~4.5 for bfloat16 significands).
        exp_mean: mean unbiased exponent of nonzero values.
        exp_std: tensor-wide exponent standard deviation.
        exp_local_std: within-group (32 consecutive values) exponent
            standard deviation; must not exceed ``exp_std``.
    """

    value_sparsity: float
    mean_terms_nonzero: float
    exp_mean: float
    exp_std: float
    exp_local_std: float = 1.2

    @property
    def term_sparsity(self) -> float:
        """Derived term sparsity relative to 8 bit-parallel slots."""
        return 1.0 - (1.0 - self.value_sparsity) * self.mean_terms_nonzero / 8.0


@dataclass(frozen=True)
class ModelCalibration:
    """Per-tensor statistics of one model.

    Attributes:
        activations: the ``A`` (input/activation) tensor.
        weights: the ``W`` tensor.
        gradients: the ``G`` (output gradient) tensor.
    """

    activations: TensorStats
    weights: TensorStats
    gradients: TensorStats

    def for_tensor(self, name: str) -> TensorStats:
        """Stats by tensor letter ("A", "W", "G" or "I")."""
        if name in ("A", "I"):
            return self.activations
        if name == "W":
            return self.weights
        if name == "G":
            return self.gradients
        raise KeyError(f"unknown tensor {name!r}")


CALIBRATIONS: dict[str, ModelCalibration] = {
    "SqueezeNet 1.1": ModelCalibration(
        activations=TensorStats(0.45, 2.5, -2.0, 3.0, 1.4),
        weights=TensorStats(0.05, 3.3, -4.0, 2.0, 0.9),
        gradients=TensorStats(0.55, 2.4, -12.0, 3.5, 1.6),
    ),
    "VGG16": ModelCalibration(
        activations=TensorStats(0.55, 3.2, -1.5, 3.0, 1.4),
        weights=TensorStats(0.05, 3.4, -4.5, 2.0, 0.9),
        gradients=TensorStats(0.70, 3.0, -13.0, 3.5, 1.6),
    ),
    "ResNet50-S2": ModelCalibration(
        activations=TensorStats(0.40, 2.7, -2.0, 3.0, 1.4),
        weights=TensorStats(0.50, 2.9, -4.0, 2.0, 0.9),
        gradients=TensorStats(0.35, 2.6, -11.0, 3.5, 1.6),
    ),
    "ResNet18-Q": ModelCalibration(
        activations=TensorStats(0.48, 1.3, -2.0, 2.0, 1.0),
        weights=TensorStats(0.05, 1.35, -3.5, 1.5, 0.8),
        gradients=TensorStats(0.30, 3.0, -11.0, 3.5, 1.6),
    ),
    "SNLI": ModelCalibration(
        activations=TensorStats(0.30, 1.45, -1.5, 2.5, 1.1),
        weights=TensorStats(0.02, 1.7, -3.5, 1.8, 0.8),
        gradients=TensorStats(0.10, 1.5, -10.0, 3.0, 1.4),
    ),
    "Image2Text": ModelCalibration(
        activations=TensorStats(0.10, 2.8, -1.5, 2.5, 1.2),
        weights=TensorStats(0.02, 3.0, -4.0, 2.0, 0.9),
        gradients=TensorStats(0.15, 2.8, -10.0, 3.2, 1.5),
    ),
    "Detectron2": ModelCalibration(
        activations=TensorStats(0.30, 2.1, -2.0, 2.8, 1.3),
        weights=TensorStats(0.05, 2.6, -4.0, 2.0, 0.9),
        gradients=TensorStats(0.40, 2.2, -11.0, 3.3, 1.5),
    ),
    "NCF": ModelCalibration(
        activations=TensorStats(0.05, 2.2, -1.5, 2.2, 1.0),
        weights=TensorStats(0.02, 2.4, -3.0, 1.8, 0.8),
        gradients=TensorStats(0.95, 2.6, -9.0, 3.0, 1.4),
    ),
    "Bert": ModelCalibration(
        activations=TensorStats(0.05, 2.5, -1.0, 2.5, 1.1),
        weights=TensorStats(0.02, 2.7, -3.5, 1.8, 0.8),
        gradients=TensorStats(0.10, 2.4, -9.5, 3.0, 1.4),
    ),
    # AlexNet / ResNet18 for the accumulator-width study (Fig 21):
    # unquantized ImageNet training statistics.
    "AlexNet": ModelCalibration(
        activations=TensorStats(0.45, 3.1, -2.0, 3.0, 1.4),
        weights=TensorStats(0.05, 3.3, -4.0, 2.0, 0.9),
        gradients=TensorStats(0.50, 3.0, -12.0, 3.5, 1.6),
    ),
    "ResNet18": ModelCalibration(
        activations=TensorStats(0.40, 3.1, -2.0, 3.0, 1.4),
        weights=TensorStats(0.05, 3.3, -4.0, 2.0, 0.9),
        gradients=TensorStats(0.40, 3.0, -11.5, 3.5, 1.6),
    ),
}


def get_calibration(model: str) -> ModelCalibration:
    """Calibration by model name.

    Args:
        model: Table I model name.

    Returns:
        The :class:`ModelCalibration`.
    """
    if model not in CALIBRATIONS:
        raise KeyError(f"no calibration for {model!r}; known: {sorted(CALIBRATIONS)}")
    return CALIBRATIONS[model]
