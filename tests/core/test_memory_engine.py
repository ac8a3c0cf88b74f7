"""Cross-engine conformance: hierarchy vs roofline memory pricing.

The contract of ``memory_engine="hierarchy"``: the compute side of the
simulation (cycles, lane/term ledgers, group counts) is bit-identical to
the roofline reference, the memory-bound cycles are never *below* the
roofline's (container padding only adds bytes), and results from either
engine survive the session's JSON persistence byte for byte.
"""

import json

import pytest

from repro.core.accelerator import AcceleratorSimulator, WorkloadResult
from repro.harness.runner import SessionConfig, SimRequest, SimulationSession
from repro.memory.dram import DRAMModel
from repro.memory.traffic import phase_traffic
from repro.models.zoo import STUDIED_MODELS
from repro.traces.workloads import build_workloads

# Reduced sampling keeps each cold simulation fast; conformance is
# exact at any sampling level because both engines consume the same
# operand draw.
QUICK = dict(sample_strips=2, sample_steps=8)

# One pure-fc, one mixed, and one all-conv geometry.
MODELS = ("NCF", "SNLI", "SqueezeNet 1.1")


def _counters_sans_memory(counters) -> dict:
    data = counters.to_dict()
    data.pop("memory", None)
    return data


def _pair(model):
    workloads = build_workloads(model, progress=0.5, seed=0)
    roof = AcceleratorSimulator(**QUICK).simulate_workload(workloads)
    hier = AcceleratorSimulator(
        **QUICK, memory_engine="hierarchy"
    ).simulate_workload(workloads)
    return roof, hier


class TestCrossEngineConformance:
    @pytest.mark.parametrize("model", MODELS)
    def test_compute_identical_memory_at_least_roofline(self, model):
        roof, hier = _pair(model)
        assert len(roof.phases) == len(hier.phases)
        for pr, ph in zip(roof.phases, hier.phases):
            # Compute side: bit-identical.
            assert ph.compute_cycles == pr.compute_cycles
            assert ph.serial_tensor == pr.serial_tensor
            assert _counters_sans_memory(ph.counters) == _counters_sans_memory(
                pr.counters
            )
            # Memory side: event-level, never below the roofline.
            assert pr.counters.memory is None
            assert ph.counters.memory is not None
            assert ph.dram_cycles >= pr.dram_cycles
            assert ph.cycles == max(ph.compute_cycles, ph.dram_cycles)

    def test_hierarchy_counters_populated_for_conv_geometry(self):
        _, hier = _pair("SqueezeNet 1.1")
        memory = hier.counters_total().memory
        assert memory.containers > 0
        assert memory.dram_cycles > 0
        assert memory.bank_cycles > 0
        # Misaligned conv channel strides collide in the banks, and the
        # backward passes route weights/gradients through the
        # transposers -- both visible in the new stall counters.
        assert memory.bank_conflict_cycles > 0
        assert memory.transposer_cycles > 0
        assert memory.scratchpad_bytes > 0

    def test_zoo_wide_traffic_dominates_roofline(self):
        """Pure traffic pricing across every studied model's geometry."""
        dram = DRAMModel()
        for model in STUDIED_MODELS:
            for workload in build_workloads(model, progress=0.5, seed=0):
                traffic = phase_traffic(workload, dram=dram, clock_mhz=600.0)
                roofline = dram.transfer_cycles(workload.total_bytes, 600.0)
                assert traffic.dram_cycles >= roofline
                assert traffic.memory_cycles >= traffic.dram_cycles
                assert traffic.bank_conflict_cycles >= 0.0


class TestEngineValidation:
    def test_simulator_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            AcceleratorSimulator(memory_engine="bogus")

    def test_session_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            SimulationSession(config=SessionConfig(memory_engine="bogus"))

    def test_engines_get_distinct_canonical_keys(self):
        request = SimRequest.make("NCF")
        roof = SimulationSession(config=SessionConfig(**QUICK))
        hier = SimulationSession(
            config=SessionConfig(**QUICK, memory_engine="hierarchy")
        )
        assert roof.key_of(request) != hier.key_of(request)

    def test_baseline_keys_shared_across_engines(self):
        """The analytic baseline is engine-independent: both engines
        must reuse one cached baseline instead of re-simulating."""
        from repro.core.config import baseline_paper_config

        request = SimRequest.make("NCF", baseline_paper_config())
        roof = SimulationSession(config=SessionConfig(**QUICK))
        hier = SimulationSession(
            config=SessionConfig(**QUICK, memory_engine="hierarchy")
        )
        assert roof.key_of(request) == hier.key_of(request)


class TestSessionRoundTrip:
    @pytest.mark.parametrize("engine", ("roofline", "hierarchy"))
    def test_cached_results_round_trip_byte_identically(self, tmp_path, engine):
        session = SimulationSession(
            config=SessionConfig(
                cache_dir=tmp_path, memory_engine=engine, **QUICK
            )
        )
        result = session.simulate("NCF")
        key = session.key_of(SimRequest.make("NCF"))
        path = session.disk.path_for(key)
        raw = path.read_bytes()

        fresh = SimulationSession(
            config=SessionConfig(
                cache_dir=tmp_path, memory_engine=engine, **QUICK
            )
        )
        again = fresh.simulate("NCF")
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.simulations == 0
        assert again.to_dict() == result.to_dict()
        # Re-persisting the loaded result rewrites the same bytes.
        fresh.disk.store(key, again)
        assert path.read_bytes() == raw

    @pytest.mark.parametrize("engine", ("roofline", "hierarchy"))
    def test_workload_result_json_round_trip_exact(self, engine):
        workloads = build_workloads("NCF", progress=0.5, seed=0)
        result = AcceleratorSimulator(
            **QUICK, memory_engine=engine
        ).simulate_workload(workloads)
        back = WorkloadResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.to_dict() == result.to_dict()
        if engine == "hierarchy":
            restored = back.counters_total().memory
            original = result.counters_total().memory
            assert restored.to_dict() == original.to_dict()
