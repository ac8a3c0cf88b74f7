"""N=1 scale-out is bit-identical to the single-tile path.

The same contract the batched strip engine carries against the serial
reference: under *every* partition scheme, a one-node
:class:`ScaleOutSimulator` run must reproduce the plain simulator's
cycles, counters, and energy exactly -- for the FPRaker config, the
analytic baseline, Pragmatic-FP, and the hierarchy memory engine, on
concrete zoo models and on randomized synthetic workloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec
from repro.core import simulator_for
from repro.core.accelerator import AcceleratorSimulator
from repro.core.baseline import BaselineAccelerator
from repro.core.config import (
    baseline_paper_config,
    fpraker_paper_config,
    pragmatic_paper_config,
)
from repro.core.pragmatic import PragmaticFPAccelerator
from repro.core.workload import PhaseWorkload
from repro.fp.bfloat16 import bf16_quantize
from repro.scale.partition import SCHEMES
from repro.scale.scaleout import ScaleOutSimulator, single_node_result
from repro.traces.workloads import build_workloads

FAST = dict(sample_strips=2, sample_steps=8)


def _node(config, sample_strips=2, sample_steps=8, memory_engine="roofline"):
    """The node simulator a session builds for ``config``."""
    return simulator_for(
        config, sample_strips, sample_steps, 1234, memory_engine
    )


@pytest.fixture(scope="module")
def ncf_workloads():
    return build_workloads("NCF", progress=0.5)


def _assert_matches(scale_result, single_result):
    """Aggregate fields equal the single-tile result bit for bit."""
    assert scale_result.nodes == 1
    assert scale_result.cycles == single_result.cycles
    assert scale_result.node_cycles == single_result.cycles
    assert scale_result.comm_cycles == 0.0
    assert scale_result.link_energy_nj == 0.0
    assert codec.to_dict(scale_result.counters) == codec.to_dict(
        single_result.counters_total()
    )
    assert codec.to_dict(scale_result.energy) == codec.to_dict(
        single_result.energy_total()
    )


class TestSingleNodeConformance:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fpraker(self, ncf_workloads, scheme):
        single = AcceleratorSimulator(
            fpraker_paper_config(), **FAST
        ).simulate_workload(ncf_workloads, model="NCF")
        scale = ScaleOutSimulator(
            _node(fpraker_paper_config()), nodes=1, scheme=scheme
        ).simulate_workload(ncf_workloads, model="NCF")
        _assert_matches(scale, single)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_baseline(self, ncf_workloads, scheme):
        single = BaselineAccelerator(
            baseline_paper_config()
        ).simulate_workload(ncf_workloads)
        scale = ScaleOutSimulator(
            _node(baseline_paper_config()), nodes=1, scheme=scheme
        ).simulate_workload(ncf_workloads, model="NCF")
        _assert_matches(scale, single)

    def test_pragmatic(self, ncf_workloads):
        single = PragmaticFPAccelerator(
            pragmatic_paper_config(), **FAST
        ).simulate_workload(ncf_workloads, model="NCF")
        scale = ScaleOutSimulator(
            _node(pragmatic_paper_config()), nodes=1, scheme="data"
        ).simulate_workload(ncf_workloads, model="NCF")
        _assert_matches(scale, single)

    def test_hierarchy_memory_engine(self, ncf_workloads):
        single = AcceleratorSimulator(
            fpraker_paper_config(), memory_engine="hierarchy", **FAST
        ).simulate_workload(ncf_workloads, model="NCF")
        scale = ScaleOutSimulator(
            _node(fpraker_paper_config(), memory_engine="hierarchy"),
            nodes=1,
            scheme="model",
        ).simulate_workload(ncf_workloads, model="NCF")
        _assert_matches(scale, single)

    def test_single_node_result_wrapper(self, ncf_workloads):
        single = AcceleratorSimulator(
            fpraker_paper_config(), **FAST
        ).simulate_workload(ncf_workloads, model="NCF")
        wrapped = single_node_result(single, "data")
        _assert_matches(wrapped, single)


def _random_workloads(seed, layers, sparsity):
    rng = np.random.default_rng(seed)
    workloads = []
    for i in range(layers):
        for phase, (ta, tb) in (
            ("AxW", ("A", "W")),
            ("GxW", ("G", "W")),
            ("AxG", ("A", "G")),
        ):
            values_a = bf16_quantize(rng.normal(0, 1, 256))
            values_a[rng.random(256) < sparsity] = 0.0
            values_b = bf16_quantize(rng.normal(0, 2, 256))
            workloads.append(
                PhaseWorkload(
                    model="prop",
                    layer=f"l{i}",
                    phase=phase,
                    macs=int(rng.integers(1, 10)) * 1_000_000,
                    reduction=int(rng.integers(3, 10)) * 64,
                    tensor_a=ta,
                    tensor_b=tb,
                    values_a=values_a,
                    values_b=values_b,
                    input_bytes=float(rng.integers(1, 100)) * 1e4,
                    output_bytes=float(rng.integers(1, 100)) * 1e3,
                )
            )
    return workloads


class TestSingleNodeProperty:
    """Hypothesis: N=1 exactness holds for arbitrary workload mixes."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        layers=st.integers(1, 4),
        sparsity=st.floats(0.0, 0.9),
        scheme=st.sampled_from(SCHEMES),
    )
    def test_n1_bit_exact(self, seed, layers, sparsity, scheme):
        workloads = _random_workloads(seed, layers, sparsity)
        single = AcceleratorSimulator(
            fpraker_paper_config(), sample_strips=1, sample_steps=4
        ).simulate_workload(workloads, model="prop")
        scale = ScaleOutSimulator(
            _node(fpraker_paper_config(), sample_strips=1, sample_steps=4),
            nodes=1,
            scheme=scheme,
        ).simulate_workload(workloads, model="prop")
        _assert_matches(scale, single)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nodes=st.integers(2, 8),
        scheme=st.sampled_from(SCHEMES),
    )
    def test_multi_node_sane(self, seed, nodes, scheme):
        """N>1 aggregates stay finite, positive, and serializable."""
        workloads = _random_workloads(seed, 3, 0.4)
        result = ScaleOutSimulator(
            _node(fpraker_paper_config(), sample_strips=1, sample_steps=4),
            nodes=nodes,
            scheme=scheme,
        ).simulate_workload(workloads, model="prop")
        assert result.nodes == nodes
        assert len(result.node_summaries) == nodes
        assert np.isfinite(result.cycles) and result.cycles > 0
        assert result.cycles >= result.node_cycles
        round_trip = codec.from_dict(type(result), result.to_dict(), "result")
        assert round_trip.to_dict() == result.to_dict()


class TestMultiNodeBehavior:
    def test_data_parallel_speeds_up(self, ncf_workloads):
        runs = {
            n: ScaleOutSimulator(
                _node(fpraker_paper_config()), nodes=n, scheme="data"
            ).simulate_workload(ncf_workloads, model="NCF")
            for n in (1, 2, 4)
        }
        assert runs[2].cycles < runs[1].cycles
        assert runs[4].cycles < runs[2].cycles
        # Communication makes scaling sub-linear.
        assert runs[1].cycles < 4.0 * runs[4].cycles

    def test_symmetric_nodes_identical(self, ncf_workloads, monkeypatch):
        """Symmetric schemes simulate one node and replicate it; the
        pipeline simulates each non-empty stage once."""
        calls = []
        simulate = AcceleratorSimulator.simulate_workload

        def counted(simulator, workloads, model=""):
            calls.append(model)
            return simulate(simulator, workloads, model=model)

        monkeypatch.setattr(
            AcceleratorSimulator, "simulate_workload", counted
        )
        for scheme in ("data", "model"):
            calls.clear()
            result = ScaleOutSimulator(
                _node(fpraker_paper_config()), nodes=8, scheme=scheme
            ).simulate_workload(ncf_workloads, model="NCF")
            assert len(calls) == 1
            dicts = [codec.to_dict(s) for s in result.node_summaries]
            for entry in dicts:
                entry.pop("node_id")
            assert len(dicts) == 8
            assert all(entry == dicts[0] for entry in dicts)
        calls.clear()
        result = ScaleOutSimulator(
            _node(fpraker_paper_config()), nodes=4, scheme="pipeline"
        ).simulate_workload(ncf_workloads, model="NCF")
        stages = [s for s in result.node_summaries if s.layer_phases]
        assert len(calls) == len(stages)

    def test_comm_priced_only_above_one_node(self, ncf_workloads):
        n4 = ScaleOutSimulator(
            _node(fpraker_paper_config()), nodes=4, scheme="data"
        ).simulate_workload(ncf_workloads, model="NCF")
        assert n4.comm_cycles > 0.0
        assert n4.link_energy_nj > 0.0

    def test_pipeline_idle_stages_cost_nothing(self):
        workloads = _random_workloads(11, 2, 0.3)
        result = ScaleOutSimulator(
            _node(fpraker_paper_config()), nodes=4, scheme="pipeline"
        ).simulate_workload(workloads, model="prop")
        idle = [s for s in result.node_summaries if s.layer_phases == 0]
        assert idle
        for summary in idle:
            assert summary.cycles == 0.0
            assert summary.macs == 0.0

    def test_invalid_arguments_rejected(self):
        node = _node(fpraker_paper_config())
        with pytest.raises(ValueError, match="nodes"):
            ScaleOutSimulator(node, nodes=0)
        with pytest.raises(ValueError, match="scheme"):
            ScaleOutSimulator(node, scheme="torus")
        with pytest.raises(ValueError, match="empty"):
            ScaleOutSimulator(node, nodes=2).simulate_workload([])
