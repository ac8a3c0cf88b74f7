"""Value and term sparsity measurement (paper Figs 1a and 1b).

The paper weights each tensor's sparsity by its frequency of use; here
each model's per-tensor statistics are measured over MAC-weighted layer
samples, which is the same weighting.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.encoding.booth import term_sparsity, value_sparsity
from repro.models.zoo import get_model
from repro.traces.calibration import get_calibration
from repro.traces.synthetic import generate_tensor

TENSORS = ("G", "W", "A")


@dataclass
class SparsityReport:
    """Per-tensor sparsity of one model.

    Attributes:
        model: model name.
        value: ``tensor letter -> zero fraction`` (Fig 1a).
        term: ``tensor letter -> term sparsity`` (Fig 1b).
    """

    model: str
    value: dict[str, float]
    term: dict[str, float]


def model_sparsity_report(
    model_name: str, sample_size: int = 65536, seed: int = 0
) -> SparsityReport:
    """Measure a model's per-tensor value and term sparsity.

    Args:
        model_name: Table I model name.
        sample_size: values sampled per tensor.
        seed: RNG seed.

    Returns:
        The :class:`SparsityReport`.
    """
    get_model(model_name)  # validate the name against the zoo
    calibration = get_calibration(model_name)
    value: dict[str, float] = {}
    term: dict[str, float] = {}
    for tensor in TENSORS:
        tag = f"sparsity/{model_name}/{tensor}".encode()
        rng = np.random.default_rng((seed, zlib.crc32(tag)))
        values = generate_tensor(calibration.for_tensor(tensor), sample_size, rng)
        value[tensor] = value_sparsity(values)
        term[tensor] = term_sparsity(values)
    return SparsityReport(model=model_name, value=value, term=term)
