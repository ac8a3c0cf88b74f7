"""Value analyses behind the paper's motivation figures (Figs 1, 2, 6)."""

from repro.analysis.sparsity import SparsityReport, model_sparsity_report
from repro.analysis.potential import (
    phase_potential_speedup,
    model_potential_speedups,
)
from repro.analysis.exponents import exponent_range_covered

__all__ = [
    "SparsityReport",
    "model_sparsity_report",
    "phase_potential_speedup",
    "model_potential_speedups",
    "exponent_range_covered",
]
