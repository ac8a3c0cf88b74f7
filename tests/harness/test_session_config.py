"""Tests for SessionConfig, the session constructor, and the api facade."""

import json

import pytest

import repro.api as api
from repro.core.config import baseline_paper_config
from repro.harness.runner import (
    SessionConfig,
    SimRequest,
    SimulationSession,
    WireFormatError,
)

QUICK = SessionConfig(sample_strips=2, sample_steps=8)


class TestSessionConfigValidation:
    def test_defaults(self):
        config = SessionConfig()
        assert config.jobs == 1
        assert config.cache_dir is None
        assert config.sample_strips == 8
        assert config.sample_steps == 32
        assert config.sim_seed == 1234
        assert config.memory_engine == "roofline"
        assert config.workload_cache is True

    def test_jobs_clamped_like_legacy_constructor(self):
        assert SessionConfig(jobs=0).jobs == 1
        assert SessionConfig(jobs=-3).jobs == 1
        assert SessionConfig(jobs=4).jobs == 4

    @pytest.mark.parametrize("field", ["sample_strips", "sample_steps"])
    def test_sampling_must_be_positive_integers(self, field):
        with pytest.raises(ValueError, match=field):
            SessionConfig(**{field: 0})
        with pytest.raises(ValueError, match=field):
            SessionConfig(**{field: 2.5})
        with pytest.raises(ValueError, match=field):
            SessionConfig(**{field: True})

    def test_sim_seed_must_be_integer(self):
        with pytest.raises(ValueError, match="sim_seed"):
            SessionConfig(sim_seed="lucky")

    def test_memory_engine_message_matches_legacy(self):
        with pytest.raises(ValueError, match="unknown memory engine 'dram'"):
            SessionConfig(memory_engine="dram")

    def test_paths_normalized_to_strings(self, tmp_path):
        config = SessionConfig(
            cache_dir=tmp_path, workload_cache=tmp_path / "wl"
        )
        assert config.cache_dir == str(tmp_path)
        assert config.workload_cache == str(tmp_path / "wl")

    def test_hashable_and_frozen(self):
        config = SessionConfig()
        assert hash(config) == hash(SessionConfig())
        with pytest.raises(AttributeError):
            config.jobs = 2


class TestWorkloadCacheSpec:
    def test_disabled(self):
        assert SessionConfig(workload_cache=False).workload_cache_spec is None

    def test_default_in_memory(self):
        assert SessionConfig().workload_cache_spec == "default"

    def test_follows_cache_dir(self, tmp_path):
        spec = SessionConfig(cache_dir=tmp_path).workload_cache_spec
        assert spec == str(tmp_path / "workloads")

    def test_explicit_directory_wins(self, tmp_path):
        config = SessionConfig(
            cache_dir=tmp_path, workload_cache=tmp_path / "elsewhere"
        )
        assert config.workload_cache_spec == str(tmp_path / "elsewhere")


class TestSessionConfigWireForm:
    def test_round_trip(self, tmp_path):
        config = SessionConfig(
            jobs=3,
            cache_dir=tmp_path,
            sample_strips=2,
            sample_steps=8,
            sim_seed=7,
            memory_engine="hierarchy",
            workload_cache=False,
        )
        back = SessionConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert back == config

    def test_omitted_fields_take_defaults(self):
        assert SessionConfig.from_dict({"jobs": 2}) == SessionConfig(jobs=2)

    def test_non_mapping_rejected(self):
        with pytest.raises(WireFormatError, match="JSON object"):
            SessionConfig.from_dict([1, 2])

    def test_unknown_field_named(self):
        with pytest.raises(WireFormatError, match="turbo"):
            SessionConfig.from_dict({"turbo": True})

    def test_foreign_schema_rejected(self):
        with pytest.raises(WireFormatError, match="schema"):
            SessionConfig.from_dict({"schema": 99})

    def test_field_validation_still_applies(self):
        with pytest.raises(ValueError, match="memory engine"):
            SessionConfig.from_dict({"memory_engine": "dram"})


class TestConstructor:
    def test_config_constructor_does_not_warn(self, recwarn):
        session = SimulationSession(config=QUICK)
        assert session.config == QUICK
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_bare_constructor_does_not_warn(self, recwarn):
        session = SimulationSession()
        assert session.config == SessionConfig()
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]


class TestApiFacade:
    def test_session_builders(self):
        assert api.session(jobs=2).config.jobs == 2
        assert api.session(QUICK).config is QUICK
        with pytest.raises(TypeError, match="not both"):
            api.session(QUICK, jobs=2)

    def test_simulate_matches_session(self):
        session = SimulationSession(config=QUICK)
        direct = session.simulate("NCF")
        via_api = api.simulate("NCF", session_config=QUICK)
        assert json.dumps(via_api.to_dict()) == json.dumps(direct.to_dict())

    def test_simulate_reuses_given_session(self):
        session = SimulationSession(config=QUICK)
        api.simulate("NCF", session=session)
        api.simulate("NCF", session=session)
        assert session.stats.simulations == 1
        assert session.stats.hits == 1

    def test_session_and_session_config_conflict(self):
        with pytest.raises(TypeError, match="not both"):
            api.simulate(
                "NCF",
                session=SimulationSession(config=QUICK),
                session_config=QUICK,
            )

    def test_sweep_coerces_and_dedups(self):
        session = SimulationSession(config=QUICK)
        results = api.sweep(
            [
                "NCF",
                SimRequest.make("NCF"),
                SimRequest.make("NCF").to_dict(),
                SimRequest.make("NCF", baseline_paper_config()),
            ],
            session=session,
        )
        assert len(results) == 4
        assert session.stats.simulations == 2  # duplicates share one run
        assert json.dumps(results[0].to_dict()) == json.dumps(
            results[1].to_dict()
        )

    def test_scaleout_single_node_shares_cache_with_simulate(self):
        session = SimulationSession(config=QUICK)
        api.simulate("NCF", session=session)
        api.scaleout("NCF", nodes=1, session=session)
        assert session.stats.simulations == 1

    def test_facade_all_is_importable(self):
        for name in api.__all__:
            assert getattr(api, name) is not None
