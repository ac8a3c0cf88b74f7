"""Experiment harness: one entry point per paper table and figure.

Each ``run_*`` function regenerates one artifact of the paper's
evaluation and returns both structured results and a printable
:class:`repro.harness.report.Table`.  The benchmarks under
``benchmarks/`` are thin wrappers around these functions that check
each artifact against the paper's claim.
"""

from repro.harness.report import Table, geomean
from repro.harness.runner import SimRequest, SimulationSession
from repro.harness.experiments import (
    run_table1,
    run_table2,
    run_table3,
    run_fig1_sparsity,
    run_fig2_potential,
    run_fig6_exponents,
    run_fig10_compression,
    run_fig11_speedup,
    run_fig12_energy,
    run_fig13_skipped,
    run_fig14_phases,
    run_fig15_stalls,
    run_fig16_obs_sync,
    run_fig17_accuracy,
    run_fig18_over_time,
    run_fig19_20_rows,
    run_fig21_accwidth,
    run_pragmatic_comparison,
    STUDIED_MODELS,
)

__all__ = [
    "Table",
    "geomean",
    "SimRequest",
    "SimulationSession",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig1_sparsity",
    "run_fig2_potential",
    "run_fig6_exponents",
    "run_fig10_compression",
    "run_fig11_speedup",
    "run_fig12_energy",
    "run_fig13_skipped",
    "run_fig14_phases",
    "run_fig15_stalls",
    "run_fig16_obs_sync",
    "run_fig17_accuracy",
    "run_fig18_over_time",
    "run_fig19_20_rows",
    "run_fig21_accwidth",
    "run_pragmatic_comparison",
    "STUDIED_MODELS",
]
