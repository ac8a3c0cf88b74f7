"""End-to-end integration tests: the paper's headline claims in miniature.

These use reduced sampling for speed; the benchmarks regenerate the full
figures.  Bands are deliberately loose -- they pin the *shape* of each
result (who wins and by roughly how much), not the exact number.
"""

import numpy as np
import pytest

from repro.core.accelerator import AcceleratorSimulator
from repro.core.baseline import BaselineAccelerator
from repro.core.config import fpraker_paper_config
from repro.core.pragmatic import PragmaticFPAccelerator
from repro.harness.experiments import (
    run_fig11_speedup,
    run_fig13_skipped,
    run_fig14_phases,
)
from repro.harness.runner import SessionConfig, SimulationSession
from repro.traces.workloads import build_workloads


@pytest.fixture(scope="module")
def quick_sims():
    fpr = AcceleratorSimulator(sample_strips=2, sample_steps=16)
    base = BaselineAccelerator()
    return fpr, base


def _speedup(model, fpr, base, progress=0.5):
    workloads = build_workloads(model, progress=progress)
    return fpr.simulate_workload(workloads).speedup_vs(
        base.simulate_workload(workloads)
    )


class TestHeadlineSpeedups:
    def test_vgg16_band(self, quick_sims):
        assert 1.2 <= _speedup("VGG16", *quick_sims) <= 1.9

    def test_resnet18q_best_convnet(self, quick_sims):
        """Quantization-trained ResNet18-Q is the paper's best convnet
        (2.04x); it must beat the unquantized convnets here too."""
        fpr, base = quick_sims
        quantized = _speedup("ResNet18-Q", fpr, base)
        assert quantized > 1.5
        assert quantized > _speedup("SqueezeNet 1.1", fpr, base)

    def test_snli_band(self, quick_sims):
        """SNLI's high bit sparsity gives ~1.8x in the paper."""
        assert 1.5 <= _speedup("SNLI", *quick_sims) <= 2.2

    def test_geomean_band(self, quick_sims):
        fpr, base = quick_sims
        speeds = [
            _speedup(m, fpr, base)
            for m in ("VGG16", "ResNet18-Q", "SNLI", "NCF", "Bert")
        ]
        geomean = float(np.exp(np.mean(np.log(speeds))))
        assert 1.25 <= geomean <= 1.85


class TestEnergyClaims:
    def test_core_efficiency_band(self, quick_sims):
        """Paper: ~1.4x core energy efficiency on average."""
        fpr, base = quick_sims
        ratios = []
        for model in ("VGG16", "SNLI", "ResNet18-Q"):
            workloads = build_workloads(model)
            f = fpr.simulate_workload(workloads)
            b = base.simulate_workload(workloads)
            ratios.append(
                b.energy_total().core.total / f.energy_total().core.total
            )
        geomean = float(np.exp(np.mean(np.log(ratios))))
        assert 1.1 <= geomean <= 1.9

    def test_total_efficiency_above_one(self, quick_sims):
        fpr, base = quick_sims
        workloads = build_workloads("Detectron2")
        f = fpr.simulate_workload(workloads)
        b = base.simulate_workload(workloads)
        assert b.energy_total().total / f.energy_total().total > 1.0


class TestPragmaticNegativeResult:
    def test_pragmatic_slower_than_baseline(self):
        """Paper: Pragmatic-FP is on average 1.72x slower at iso area."""
        prag = PragmaticFPAccelerator(sample_strips=2, sample_steps=16)
        base = BaselineAccelerator()
        slowdowns = []
        for model in ("VGG16", "Image2Text", "Bert"):
            workloads = build_workloads(model)
            slowdowns.append(
                prag.simulate_workload(workloads).cycles
                / base.simulate_workload(workloads).cycles
            )
        geomean = float(np.exp(np.mean(np.log(slowdowns))))
        assert geomean > 1.3


class TestStallStructure:
    def test_no_term_dominates_stalls(self, quick_sims):
        """Paper Fig 15: cross-lane term imbalance is the largest stall
        class (32.8% average, up to 55% for NCF)."""
        fpr, _ = quick_sims
        result = fpr.simulate_workload(build_workloads("NCF"))
        fractions = result.counters_total().lanes.fractions()
        stalls = {k: v for k, v in fractions.items() if k != "useful"}
        assert max(stalls, key=stalls.get) == "no_term"
        assert fractions["no_term"] > 0.3

    def test_shift_range_stalls_small(self, quick_sims):
        """Paper: the 3-position window is a good trade -- its stalls
        are relatively few."""
        fpr, _ = quick_sims
        result = fpr.simulate_workload(build_workloads("VGG16"))
        assert result.counters_total().lanes.fractions()["shift_range"] < 0.1


class TestSessionedExperiments:
    """The acceptance property of the cached runner: a figure subset
    performs each unique (model, config, progress, seed, acc_profile)
    simulation exactly once per session, and parallel execution is
    bit-identical to serial."""

    MODELS = ("NCF", "SNLI")

    def test_three_figures_share_unique_simulations(self):
        session = SimulationSession(
            config=SessionConfig(sample_strips=2, sample_steps=8)
        )
        run_fig11_speedup(models=self.MODELS, session=session)
        # fig11 needs 4 configs per model (baseline, zero, zero+bdc, full).
        assert session.stats.simulations == len(self.MODELS) * 4
        run_fig13_skipped(models=self.MODELS, session=session)
        run_fig14_phases(models=self.MODELS, session=session)
        # figs 13/14 only read (baseline, full) pairs fig11 already ran.
        assert session.stats.simulations == len(self.MODELS) * 4
        assert session.unique_simulations == len(self.MODELS) * 4
        assert session.stats.hits > 0

    def test_parallel_session_bit_identical(self):
        serial = SimulationSession(
            config=SessionConfig(sample_strips=2, sample_steps=8)
        )
        parallel = SimulationSession(
            config=SessionConfig(jobs=4, sample_strips=2, sample_steps=8)
        )
        tables_serial = [
            run_fig11_speedup(models=self.MODELS, session=serial),
            run_fig14_phases(models=self.MODELS, session=serial),
        ]
        tables_parallel = [
            run_fig11_speedup(models=self.MODELS, session=parallel),
            run_fig14_phases(models=self.MODELS, session=parallel),
        ]
        for left, right in zip(tables_serial, tables_parallel):
            assert left.rows == right.rows
            assert left.render() == right.render()

    def test_sessioned_figures_match_direct_simulation(self, quick_sims):
        """The session front end reproduces ad-hoc simulator results."""
        session = SimulationSession(
            config=SessionConfig(sample_strips=2, sample_steps=16)
        )
        table = run_fig14_phases(models=("NCF",), session=session)
        fpr, base = quick_sims
        workloads = build_workloads("NCF", progress=0.5)
        full = fpr.simulate_workload(workloads)
        ref = base.simulate_workload(workloads)
        expected = full.phase_speedup_vs(ref, "AxG")
        assert table.rows[0][1] == pytest.approx(expected, rel=0, abs=0)


class TestOverTime:
    def test_speedup_stable_for_stable_models(self, quick_sims):
        fpr, base = quick_sims
        speeds = [
            _speedup("Bert", fpr, base, progress=p) for p in (0.2, 0.6, 1.0)
        ]
        assert max(speeds) - min(speeds) < 0.25

    def test_resnet18q_improves_after_pact_settles(self, quick_sims):
        fpr, base = quick_sims
        early = _speedup("ResNet18-Q", fpr, base, progress=0.05)
        late = _speedup("ResNet18-Q", fpr, base, progress=0.6)
        assert late > early
