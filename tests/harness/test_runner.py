"""Tests for the cached, parallel simulation session and result cache."""

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import codec
from repro.core.accelerator import AcceleratorSimulator, WorkloadResult
from repro.core.config import baseline_paper_config, fpraker_paper_config
from repro.core.workload import PhaseWorkload
from repro.fp.bfloat16 import bf16_quantize
from repro.harness.cache import ResultCache
from repro.harness.experiments import run_fig11_speedup, run_fig14_phases
from repro.harness.report import Table
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


def _tables():
    table = Table("T", ["name", "count", "value"])
    table.add_row("a", 3, 0.1)
    table.add_row("b", -7, math.inf)
    table.add_row("c", 0, -0.0)
    other = Table("U", ["x"])
    other.add_row(1.5e-9)
    return table, other


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


KEYED = SessionConfig(sample_strips=4, sample_steps=32, sim_seed=1234)


class TestCanonicalKey:
    def test_none_config_equals_paper_config(self):
        r1 = SimRequest.make("NCF", None)
        r2 = SimRequest.make("NCF", fpraker_paper_config())
        assert canonical_key(r1, KEYED) == canonical_key(r2, KEYED)

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
        key = canonical_key(base, KEYED)
        for variant in variants:
            assert canonical_key(variant, KEYED) != key

    def test_sampling_parameters_in_key(self):
        request = SimRequest.make("NCF")
        assert canonical_key(request, KEYED) != canonical_key(
            request, SessionConfig(sample_strips=2, sample_steps=32)
        )

    def test_integral_clock_shares_the_paper_key(self):
        # JSON's 600 and the paper's 600.0 are one configuration.
        wire = SimRequest.from_dict(
            {"model": "NCF", "config": {"clock_mhz": 600}}
        )
        paper = SimRequest.make("NCF", fpraker_paper_config())
        assert canonical_key(wire, KEYED) == canonical_key(paper, KEYED)

    def test_acc_profile_order_insensitive(self):
        r1 = SimRequest.make("NCF", acc_profile={"a": 6, "b": 8})
        r2 = SimRequest.make("NCF", acc_profile={"b": 8, "a": 6})
        assert canonical_key(r1, KEYED) == canonical_key(r2, KEYED)


class TestResultSerialization:
    def test_workload_result_round_trip_exact(self):
        result = _simulated_result()
        back = codec.from_dict(
            WorkloadResult, json.loads(json.dumps(result.to_dict())), "result"
        )
        assert back.name == result.name and back.model == result.model
        assert back.cycles == result.cycles  # exact, not approx
        assert back.macs == result.macs
        assert back.energy_total().total == result.energy_total().total
        c1, c2 = back.counters_total(), result.counters_total()
        assert c1.lanes == c2.lanes
        assert c1.terms == c2.terms
        assert back.phases[0].serial_tensor == result.phases[0].serial_tensor

    def test_result_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _simulated_result()
        cache.store("key1", result)
        loaded = cache.load("key1")
        assert loaded is not None
        assert json.dumps(loaded.to_dict()) == json.dumps(result.to_dict())
        assert cache.load("other-key") is None

    def test_tables_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        tables = _tables()
        cache.store("tables", tables)
        loaded = cache.load("tables")
        assert isinstance(loaded, tuple) and len(loaded) == 2
        assert [t.to_dict() for t in loaded] == [t.to_dict() for t in tables]
        assert [t.render() for t in loaded] == [t.render() for t in tables]
        rows = loaded[0].rows
        assert type(rows[0][1]) is int and type(rows[0][2]) is float
        assert rows[1][2] == math.inf
        assert math.copysign(1.0, rows[2][2]) == -1.0

    def test_store_rejects_unknown_types(self, tmp_path):
        cache = ResultCache(tmp_path)
        for value in ({"cycles": 1}, (), Table("T", ["a"]), [_tables()[0]]):
            with pytest.raises(TypeError):
                cache.store("key", value)
        assert list(tmp_path.iterdir()) == []

    def test_result_cache_rejects_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _simulated_result()
        path = cache.store("key1", result)
        entry = json.loads(path.read_text())
        wrong_shape = json.dumps({**entry, "result": {"cycles": 1}})
        unknown_kind = json.dumps({**entry, "kind": "nonsense"})
        for text in (
            "{not json", '["not a cache entry"]', wrong_shape, unknown_kind
        ):
            path.write_text(text)
            assert cache.load("key1") is None
        path = cache.store("key2", _tables())
        entry = json.loads(path.read_text())
        table = {"title": "T", "headers": ["a", "b"], "rows": [[1, 2]]}
        for result in (
            [{**table, "rows": [[1]]}],  # a short row
            [{"title": "T", "headers": ["a", "b"]}],  # no rows
            table,  # not a list
            [],
        ):
            path.write_text(json.dumps({**entry, "result": result}))
            assert cache.load("key2") is None

    def test_result_cache_concurrent_writer_and_readers(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _simulated_result()
        keys = [f"k{i}" for i in range(24)]
        errors = []

        def write():
            try:
                for key in keys:
                    cache.store(key, result)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read():
            try:
                for _ in range(3):
                    for key in keys:
                        loaded = cache.load(key)
                        if loaded is not None:
                            assert loaded.cycles == result.cycles
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert all(cache.load(key) is not None for key in keys)


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
        assert a.counters_total().lanes == b.counters_total().lanes
        assert a.energy_total().total == b.energy_total().total

    def test_prefetch_runs_cold_keys_on_a_given_pool(self):
        """A pool the caller passes takes every cold key, once, in
        order, even in a one-job session."""
        submitted = []

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(args[0].model)
                return super().submit(fn, *args, **kwargs)

        session = _quick_session()
        requests = [SimRequest.make(m) for m in ("NCF", "SNLI", "NCF")]
        with Recording(max_workers=2) as pool:
            session.prefetch(requests, pool=pool)
        assert submitted == ["NCF", "SNLI"]
        assert session.stats.simulations == 2
        serial = _quick_session().simulate("SNLI")
        assert session.simulate("SNLI").cycles == serial.cycles

    def test_figures_share_session_results(self):
        session = _quick_session()
        run_fig11_speedup(models=MODELS, session=session)
        after_fig11 = session.stats.simulations
        run_fig14_phases(models=MODELS, session=session)
        assert session.stats.simulations == after_fig11
