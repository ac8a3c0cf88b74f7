"""A from-scratch numpy neural-network training framework.

This substrate replaces the paper's PyTorch+GPU trace collection and its
PlaidML ``mad()``-override accuracy study.  Every multiply-accumulate of
every layer (forward, input-gradient and weight-gradient passes) routes
through a :class:`repro.nn.fpmath.MatmulEngine`, which can run in three
arithmetic modes:

* ``fp32``  -- native single precision (the paper's "Native_FP32");
* ``bf16``  -- bfloat16 operands with the extended-precision chunk-based
  accumulator (the paper's "Baseline_BF16");
* ``fpraker`` -- the same accumulator fed by the FPRaker PE's term-serial
  arithmetic with out-of-bounds term skipping (the paper's
  "FPRaker_BF16").

Layers expose their input/weight/gradient tensors so training runs
double as trace generators for the sparsity, exponent and performance
studies.
"""

from repro.nn.fpmath import EngineConfig, MatmulEngine
from repro.nn.layers import (
    Layer,
    Dense,
    Conv2d,
    ReLU,
    MaxPool2d,
    Flatten,
)
from repro.nn.network import Sequential
from repro.nn.optim import SGD
from repro.nn.training import Trainer, TrainingHistory, TraceRecorder
from repro.nn.data import synthetic_images, SyntheticDataset
from repro.nn.sakr import sakr_accumulator_profile

__all__ = [
    "EngineConfig",
    "MatmulEngine",
    "Layer",
    "Dense",
    "Conv2d",
    "ReLU",
    "MaxPool2d",
    "Flatten",
    "Sequential",
    "SGD",
    "Trainer",
    "TrainingHistory",
    "TraceRecorder",
    "synthetic_images",
    "SyntheticDataset",
    "sakr_accumulator_profile",
]
