"""Tests for SessionConfig, the session constructor, and the api facade."""

import json

import pytest

import repro.api as api
from repro import codec
from repro.core.config import baseline_paper_config
from repro.harness.runner import (
    WIRE_SCHEMA_VERSION,
    SessionConfig,
    SimRequest,
    SimulationSession,
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

    def test_sim_seed_must_be_non_negative(self):
        # numpy's default_rng rejects a negative seed only at the first
        # simulation; the config rejects it up front.
        with pytest.raises(ValueError, match="sim_seed"):
            SessionConfig(sim_seed=-5)
        assert SessionConfig(sim_seed=0).sim_seed == 0

    def test_memory_engine_message_names_the_choices(self):
        with pytest.raises(
            ValueError,
            match="memory_engine must be one of 'roofline', 'hierarchy', "
            "got 'dram'",
        ):
            SessionConfig(memory_engine="dram")

    def test_paths_normalized_to_strings(self, tmp_path):
        assert SessionConfig(cache_dir=tmp_path).cache_dir == str(tmp_path)

    def test_hashable_and_frozen(self):
        config = SessionConfig()
        assert hash(config) == hash(SessionConfig())
        with pytest.raises(AttributeError):
            config.jobs = 2


class TestWorkloadCacheSpec:
    def test_default_in_memory(self):
        assert SessionConfig().workload_cache_spec == "default"

    def test_follows_cache_dir(self, tmp_path):
        spec = SessionConfig(cache_dir=tmp_path).workload_cache_spec
        assert spec == str(tmp_path / "workloads")


class TestSessionConfigWireForm:
    def test_round_trip(self, tmp_path):
        config = SessionConfig(
            jobs=3,
            cache_dir=tmp_path,
            sample_strips=2,
            sample_steps=8,
            sim_seed=7,
            memory_engine="hierarchy",
        )
        data = json.loads(json.dumps(config.to_dict()))
        assert data.pop("schema") == WIRE_SCHEMA_VERSION
        assert codec.from_dict(SessionConfig, data, "config") == config

    def test_omitted_fields_take_defaults(self):
        back = codec.from_dict(SessionConfig, {"jobs": 2}, "config")
        assert back == SessionConfig(jobs=2)
        # A None left at its default is left out of the wire form.
        assert "cache_dir" not in SessionConfig().to_dict()

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="object"):
            codec.from_dict(SessionConfig, [1, 2], "config")

    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="turbo"):
            codec.from_dict(SessionConfig, {"turbo": True}, "config")
        # A retired knob is an unknown field like any other.
        with pytest.raises(ValueError, match="workload_cache"):
            codec.from_dict(SessionConfig, {"workload_cache": False}, "config")

    def test_field_validation_still_applies(self):
        with pytest.raises(ValueError, match=r"config\.memory_engine"):
            codec.from_dict(SessionConfig, {"memory_engine": "dram"}, "config")


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
