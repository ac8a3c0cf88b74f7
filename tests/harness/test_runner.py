"""Tests for the cached, parallel simulation session and result cache."""

import json

import numpy as np
import pytest

from repro.core.accelerator import AcceleratorSimulator, WorkloadResult
from repro.core.config import baseline_paper_config, fpraker_paper_config
from repro.core.workload import PhaseWorkload
from repro.fp.bfloat16 import bf16_quantize
from repro.harness.cache import ResultCache
from repro.harness.experiments import run_fig11_speedup, run_fig14_phases
from repro.harness.runner import (
    SessionConfig,
    SimRequest,
    SimulationSession,
    canonical_key,
)

# Reduced sampling keeps each cold simulation fast; every test builds
# its sessions with the same parameters so results are comparable.
QUICK = dict(sample_strips=2, sample_steps=8)

MODELS = ("NCF", "SNLI")


def _quick_session(**overrides):
    return SimulationSession(config=SessionConfig(**{**QUICK, **overrides}))


def _simulated_result(seed=0):
    rng = np.random.default_rng(seed)
    values_a = bf16_quantize(rng.normal(0, 1, 2048))
    values_a[rng.random(2048) < 0.4] = 0.0
    workload = PhaseWorkload(
        model="m", layer="l", phase="AxW", macs=500_000, reduction=256,
        tensor_a="A", tensor_b="W",
        values_a=values_a,
        values_b=bf16_quantize(rng.normal(0, 1, 2048)),
        input_bytes=1e6, output_bytes=2e5,
    )
    return AcceleratorSimulator(**QUICK).simulate_workload([workload])


class TestCanonicalKey:
    def test_none_config_equals_paper_config(self):
        r1 = SimRequest.make("NCF", None)
        r2 = SimRequest.make("NCF", fpraker_paper_config())
        assert canonical_key(r1, 4, 32, 1234) == canonical_key(r2, 4, 32, 1234)

    def test_distinguishes_every_axis(self):
        base = SimRequest.make("NCF")
        variants = [
            SimRequest.make("SNLI"),
            SimRequest.make("NCF", baseline_paper_config()),
            SimRequest.make("NCF", progress=0.7),
            SimRequest.make("NCF", seed=3),
            SimRequest.make("NCF", acc_profile={"fc": 6}),
            SimRequest.make("NCF", phases=("AxW",)),
        ]
        key = canonical_key(base, 4, 32, 1234)
        for variant in variants:
            assert canonical_key(variant, 4, 32, 1234) != key

    def test_sampling_parameters_in_key(self):
        request = SimRequest.make("NCF")
        assert canonical_key(request, 4, 32, 1234) != canonical_key(
            request, 2, 32, 1234
        )

    def test_acc_profile_order_insensitive(self):
        r1 = SimRequest.make("NCF", acc_profile={"a": 6, "b": 8})
        r2 = SimRequest.make("NCF", acc_profile={"b": 8, "a": 6})
        assert canonical_key(r1, 4, 32, 1234) == canonical_key(r2, 4, 32, 1234)


class TestResultSerialization:
    def test_workload_result_round_trip_exact(self):
        result = _simulated_result()
        back = WorkloadResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert back.name == result.name and back.model == result.model
        assert back.cycles == result.cycles  # exact, not approx
        assert back.macs == result.macs
        assert back.energy_total().total == result.energy_total().total
        c1, c2 = back.counters_total(), result.counters_total()
        assert c1.lanes.to_dict() == c2.lanes.to_dict()
        assert c1.terms.to_dict() == c2.terms.to_dict()
        assert back.phases[0].serial_tensor == result.phases[0].serial_tensor

    def test_result_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _simulated_result()
        cache.store("key1", result)
        loaded = cache.load("key1")
        assert loaded is not None
        assert loaded.cycles == result.cycles
        assert cache.load("other-key") is None

    def test_result_cache_rejects_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _simulated_result()
        path = cache.store("key1", result)
        path.write_text("{not json")
        assert cache.load("key1") is None


class TestSessionMemoization:
    def test_each_unique_simulation_runs_once(self):
        session = _quick_session()
        first = session.simulate("NCF")
        second = session.simulate("NCF")
        base = session.baseline("NCF")
        assert first is second
        assert base is not first
        assert session.stats.simulations == 2
        assert session.stats.hits == 1
        assert session.unique_simulations == 2

    def test_cache_hit_equals_cold_values(self):
        warm = _quick_session()
        warm.simulate("NCF")
        hit = warm.simulate("NCF")
        cold = _quick_session().simulate("NCF")
        assert hit.cycles == cold.cycles
        assert hit.energy_total().total == cold.energy_total().total

    def test_prefetch_deduplicates(self):
        session = _quick_session()
        session.prefetch([SimRequest.make("NCF")] * 5)
        assert session.stats.simulations == 1
        session.prefetch([SimRequest.make("NCF")])
        assert session.stats.simulations == 1

    def test_disk_cache_warms_new_session(self, tmp_path):
        s1 = _quick_session(cache_dir=tmp_path)
        cold = s1.simulate("NCF")
        s2 = _quick_session(cache_dir=tmp_path)
        warm = s2.simulate("NCF")
        assert s2.stats.simulations == 0
        assert s2.stats.disk_hits == 1
        assert warm.cycles == cold.cycles
        assert warm.energy_total().total == cold.energy_total().total

    def test_disk_cache_respects_sampling_parameters(self, tmp_path):
        s1 = _quick_session(cache_dir=tmp_path)
        s1.simulate("NCF")
        other = SimulationSession(
            config=SessionConfig(
                cache_dir=tmp_path, sample_strips=3, sample_steps=8
            )
        )
        other.simulate("NCF")
        assert other.stats.disk_hits == 0
        assert other.stats.simulations == 1


class TestParallelDeterminism:
    def test_jobs4_tables_bit_identical_to_serial(self):
        serial = run_fig11_speedup(models=MODELS, session=_quick_session())
        parallel_session = _quick_session(jobs=4)
        parallel = run_fig11_speedup(models=MODELS, session=parallel_session)
        assert parallel.render() == serial.render()
        assert parallel.rows == serial.rows  # raw floats, not formatting
        assert parallel_session.stats.simulations == len(MODELS) * 4

    def test_jobs4_results_equal_serial_results(self):
        request = SimRequest.make("NCF")
        serial = _quick_session()
        serial.prefetch([request, SimRequest.make("SNLI")])
        parallel = _quick_session(jobs=2)
        parallel.prefetch([request, SimRequest.make("SNLI")])
        a = serial.simulate("NCF")
        b = parallel.simulate("NCF")
        assert a.cycles == b.cycles
        assert a.counters_total().lanes.to_dict() == b.counters_total().lanes.to_dict()
        assert a.energy_total().total == b.energy_total().total

    def test_figures_share_session_results(self):
        session = _quick_session()
        run_fig11_speedup(models=MODELS, session=session)
        after_fig11 = session.stats.simulations
        run_fig14_phases(models=MODELS, session=session)
        assert session.stats.simulations == after_fig11
