"""Training-trace layer: calibrated synthetic tensors + real capture.

The paper collects value traces by hooking PyTorch training on a GPU.
Offline, we substitute two complementary sources:

* :mod:`repro.traces.synthetic` draws tensors from per-model, per-tensor
  calibrated distributions (:mod:`repro.traces.calibration`) matching
  the paper's published sparsity, term-sparsity and exponent statistics;
* :mod:`repro.traces.capture` extracts the same statistics from *real*
  training runs of the from-scratch framework (:mod:`repro.nn`), which
  cross-checks that the synthetic generator's value structure is the
  kind training actually produces.

:mod:`repro.traces.evolution` parameterizes the statistics over training
progress (paper Fig 18), and :mod:`repro.traces.workloads` assembles
everything into simulator-ready :class:`repro.core.workload.PhaseWorkload`
lists.
"""

from repro.traces.calibration import (
    TensorStats,
    ModelCalibration,
    CALIBRATIONS,
    get_calibration,
)
from repro.traces.synthetic import generate_tensor, mantissas_with_mean_terms
from repro.traces.evolution import calibration_at
from repro.traces.workloads import build_workloads, build_phase_workload
from repro.traces.workload_cache import (
    DEFAULT_WORKLOAD_CACHE,
    WorkloadCache,
    workload_key,
)
from repro.traces.capture import capture_training_traces, CapturedTraces

__all__ = [
    "DEFAULT_WORKLOAD_CACHE",
    "WorkloadCache",
    "workload_key",
    "TensorStats",
    "ModelCalibration",
    "CALIBRATIONS",
    "get_calibration",
    "generate_tensor",
    "mantissas_with_mean_terms",
    "calibration_at",
    "build_workloads",
    "build_phase_workload",
    "capture_training_traces",
    "CapturedTraces",
]
