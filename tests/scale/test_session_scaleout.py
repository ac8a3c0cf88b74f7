"""Scale-out requests through the session: keys, memo, and disk cache."""

from dataclasses import replace

import pytest

from repro.core import simulator_for
from repro.core.config import (
    baseline_paper_config,
    fpraker_paper_config,
    pragmatic_paper_config,
)
from repro.harness.cache import CACHE_VERSION, ResultCache
from repro.harness.runner import (
    SessionConfig,
    SimRequest,
    SimulationSession,
    canonical_key,
)
from repro.scale.scaleout import ScaleOutResult, ScaleOutSimulator
from repro.traces.workloads import build_workloads

FAST = SessionConfig(sample_strips=2, sample_steps=8)


def _key(request):
    return canonical_key(request, FAST)


class TestCanonicalKeys:
    def test_nodes_and_partition_in_key(self):
        base = SimRequest.make("NCF", nodes=2, partition="data")
        assert _key(base) != _key(SimRequest.make("NCF", nodes=4, partition="data"))
        assert _key(base) != _key(SimRequest.make("NCF", nodes=2, partition="model"))

    def test_single_node_partition_normalized_away(self):
        """N=1 requests share keys regardless of (irrelevant) scheme."""
        plain = SimRequest.make("NCF")
        for scheme in ("data", "model", "pipeline"):
            assert _key(plain) == _key(
                SimRequest.make("NCF", nodes=1, partition=scheme)
            )

    def test_key_spec_contains_nodes(self):
        assert '"nodes":4' in _key(SimRequest.make("NCF", nodes=4))


class TestSessionScaleout:
    def test_n1_shares_memo_with_plain_simulate(self):
        session = SimulationSession(config=FAST)
        plain = session.simulate("NCF")
        assert session.stats.simulations == 1
        anchor = session.scaleout("NCF", 1, "pipeline")
        assert session.stats.simulations == 1  # memo hit, no re-run
        assert anchor is plain

    def test_multi_node_returns_scaleout_result(self):
        session = SimulationSession(config=FAST)
        result = session.scaleout("NCF", 2, "data")
        assert isinstance(result, ScaleOutResult)
        assert result.nodes == 2 and result.scheme == "data"

    def test_memoized_per_scheme(self):
        session = SimulationSession(config=FAST)
        first = session.scaleout("NCF", 2, "data")
        again = session.scaleout("NCF", 2, "data")
        other = session.scaleout("NCF", 2, "model")
        assert again is first
        assert other is not first
        assert session.stats.simulations == 2

    def test_prefetch_covers_scaleout_requests(self):
        session = SimulationSession(config=FAST)
        session.prefetch(
            [
                SimRequest.make("NCF", nodes=n, partition="data")
                for n in (1, 2)
            ]
        )
        assert session.stats.simulations == 2
        session.scaleout("NCF", 2, "data")
        assert session.stats.simulations == 2


class TestEveryNodeSimulator:
    """The session's sampling settings and memory engine reach the node
    simulator a multi-node request wraps, for each of the three."""

    @pytest.mark.parametrize("engine", ["roofline", "hierarchy"])
    @pytest.mark.parametrize(
        "config",
        [
            fpraker_paper_config(),
            baseline_paper_config(),
            pragmatic_paper_config(),
        ],
        ids=lambda config: config.name,
    )
    def test_session_matches_wrapped_node(self, config, engine):
        session = SimulationSession(
            config=replace(FAST, memory_engine=engine)
        )
        result = session.scaleout("NCF", 2, "model", config)
        node = simulator_for(config, 2, 8, 1234, engine)
        expected = ScaleOutSimulator(
            node, nodes=2, scheme="model"
        ).simulate_workload(build_workloads("NCF"), model="NCF")
        assert result.to_dict() == expected.to_dict()
        assert result.name == config.name
        # The analytic baseline prices memory by roofline either way.
        priced = engine == "hierarchy" and config.name != "baseline"
        assert (result.counters.memory is not None) == priced


class TestDiskCache:
    def test_scaleout_round_trip(self, tmp_path):
        session = SimulationSession(config=replace(FAST, cache_dir=tmp_path))
        cold = session.scaleout("NCF", 4, "pipeline")
        warm_session = SimulationSession(config=replace(FAST, cache_dir=tmp_path))
        warm = warm_session.scaleout("NCF", 4, "pipeline")
        assert warm_session.stats.disk_hits == 1
        assert warm_session.stats.simulations == 0
        assert isinstance(warm, ScaleOutResult)
        assert warm.to_dict() == cold.to_dict()

    def test_kind_tag_selects_deserializer(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        session = SimulationSession(config=replace(FAST, cache_dir=tmp_path))
        request = SimRequest.make("NCF", nodes=2, partition="data")
        session.prefetch([request])
        key = session.key_of(request)
        payload = json.loads(cache.path_for(key).read_text())
        assert payload["version"] == CACHE_VERSION
        assert payload["kind"] == "scaleout"
        loaded = cache.load(key)
        assert isinstance(loaded, ScaleOutResult)

    def test_workload_results_tagged_workload(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        session = SimulationSession(config=replace(FAST, cache_dir=tmp_path))
        request = SimRequest.make("NCF")
        session.prefetch([request])
        payload = json.loads(
            cache.path_for(session.key_of(request)).read_text()
        )
        assert payload["kind"] == "workload"

    def test_version_mismatch_is_miss(self, tmp_path, monkeypatch):
        session = SimulationSession(config=replace(FAST, cache_dir=tmp_path))
        request = SimRequest.make("NCF", nodes=2, partition="data")
        session.prefetch([request])
        monkeypatch.setattr("repro.harness.cache.CACHE_VERSION", 999)
        assert ResultCache(tmp_path).load(session.key_of(request)) is None


class TestParallelFanOut:
    def test_jobs_bit_identical_to_serial(self, tmp_path):
        requests = [
            SimRequest.make("NCF", nodes=n, partition=p)
            for n, p in ((2, "data"), (2, "model"), (4, "pipeline"))
        ]
        serial = SimulationSession(config=FAST)
        serial.prefetch(requests)
        parallel = SimulationSession(config=replace(FAST, jobs=2))
        parallel.prefetch(requests)
        for request in requests:
            a = serial._memo[serial.key_of(request)]
            b = parallel._memo[parallel.key_of(request)]
            assert a.to_dict() == b.to_dict()
