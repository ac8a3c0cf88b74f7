"""Tests for the versioned JSON wire schema (envelopes + SimRequest)."""

import json

import pytest

from repro.core.config import (
    MAX_BUFFER_DEPTH,
    MAX_CLOCK_MHZ,
    MAX_COLS,
    MAX_SHIFT_WINDOW,
    MAX_TILE_MAC_LANES,
    MAX_TILES,
    baseline_paper_config,
    fpraker_paper_config,
)
from repro.harness.report import Table
from repro.harness.runner import (
    SessionConfig,
    SimRequest,
    WIRE_SCHEMA_VERSION,
    WireFormatError,
    canonical_key,
    execute_request,
)
from repro.service import wire


def _envelope(**fields):
    return {"schema": wire.ENVELOPE_SCHEMA, **fields}


class TestSimRequestWireForm:
    def test_round_trip_preserves_canonical_key(self):
        request = SimRequest.make(
            "NCF",
            baseline_paper_config(),
            progress=0.7,
            seed=3,
            acc_profile={"fc": 6},
            phases=("AxW", "GxW"),
        )
        back = SimRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        config = SessionConfig(sample_strips=4)
        assert canonical_key(back, config) == canonical_key(request, config)

    def test_wire_form_carries_schema_version(self):
        assert SimRequest.make("NCF").to_dict()["schema"] == (
            WIRE_SCHEMA_VERSION
        )

    def test_none_config_round_trips_to_paper_config(self):
        back = SimRequest.from_dict(SimRequest.make("NCF").to_dict())
        assert back.resolved_config() == fpraker_paper_config()

    def test_unknown_field_is_actionable(self):
        data = SimRequest.make("NCF").to_dict()
        data["wombat"] = 1
        with pytest.raises(WireFormatError, match="wombat"):
            SimRequest.from_dict(data)

    def test_unknown_schema_rejected(self):
        data = SimRequest.make("NCF").to_dict()
        data["schema"] = 99
        with pytest.raises(WireFormatError, match="schema"):
            SimRequest.from_dict(data)

    @pytest.mark.parametrize(
        "patch,needle",
        [
            ({"model": 7}, "model"),
            ({"progress": "half"}, "progress"),
            ({"progress": 1.5}, "progress"),
            ({"seed": 0.5}, "seed"),
            ({"phases": ["AxW", "XxX"]}, "XxX"),
            ({"acc_profile": [["fc"]]}, "acc_profile"),
            ({"nodes": 0}, "nodes"),
            ({"partition": "diagonal"}, "partition"),
            ({"seed": -1}, "seed"),
            ({"model": "Nope"}, "model"),
            ({"config": {"tiles": 0}}, "tiles"),
            ({"config": {"tile": {"cols": 0}}}, "cols"),
            ({"config": {"tile": {"pe": {"lanes": 0}}}}, "lanes"),
            ({"config": {"clock_mhz": -5}}, "clock_mhz"),
            (
                {"config": {"serial_side_selection": "x"}},
                "serial_side_selection",
            ),
            # Each ran without a check: the first never returned, the
            # next three raised inside the simulation, the rest ran.
            ({"config": {"tile": {"pe": {"shift_window": -1}}}},
             "shift_window"),
            ({"config": {"tile": {"buffer_depth": -1}}}, "buffer_depth"),
            ({"config": {"tile": {"pe": {"lanes": 2.0}}}}, "lanes"),
            ({"config": {"tile": {"rows": 1.5}}}, "rows"),
            ({"config": {"tiles": 2.5}}, "tiles"),
            ({"config": {"tiles": True}}, "tiles"),
            ({"config": {"tile": {"pe": {"accumulator": {"frac_bits": -3}}}}},
             "frac_bits"),
            ({"acc_profile": [["embed_fusion", -3]]}, "acc_profile"),
            ({"config": {"tile": {"pe": {"ob_skip": "no"}}}}, "ob_skip"),
            ({"config": {"base_delta_compression": "no"}},
             "base_delta_compression"),
            # Each ran and returned the default's number: an exponent
            # block shared by no PE read as 1, and no simulated number
            # reads int_bits or chunk_size.
            ({"config": {"tile": {"pe": {"exponent_sharing": 0}}}},
             "exponent_sharing"),
            ({"config": {"tile": {"pe": {"exponent_sharing": -2}}}},
             "exponent_sharing"),
            ({"config": {"tile": {"pe": {"accumulator": {"int_bits": -5}}}}},
             "int_bits"),
            ({"config": {"tile": {"pe": {"accumulator": {"chunk_size": 0}}}}},
             "chunk_size"),
            # One MAC lane over MAX_TILE_MAC_LANES (512 x 8 x 8 is at it).
            ({"config": {"tile": {"rows": 512, "pe": {"lanes": 9}}}},
             r"config\.tile .*<= 32768"),
            # One over each size bound; each ran, taking memory and time
            # that grow with the value.
            ({"config": {"tiles": MAX_TILES + 1}}, r"config\.tiles .*<="),
            ({"config": {"tile": {"cols": MAX_COLS + 1}}},
             r"config\.tile\.cols .*<="),
            ({"config": {"tile": {"buffer_depth": MAX_BUFFER_DEPTH + 1}}},
             r"config\.tile\.buffer_depth .*<="),
            ({"config": {"tile": {"pe": {"shift_window": MAX_SHIFT_WINDOW + 1}}}},
             r"config\.tile\.pe\.shift_window .*<="),
            # 8 x 512 x 8 is at the MAC-lane bound, but over the column
            # bound: the dearest shape measured.
            ({"config": {"tile": {"cols": 512}}}, r"config\.tile\.cols .*<="),
            # Each raised ZeroDivisionError inside the simulation:
            # clock_mhz * 1e6 overflowed to infinity, so the DRAM
            # model's bytes per cycle read 0.  ``json.loads`` reads the
            # ``Infinity`` literal as float("inf").
            ({"config": {"clock_mhz": float("inf")}},
             r"config\.clock_mhz .*<="),
            ({"config": {"clock_mhz": 1e303}}, r"config\.clock_mhz .*<="),
        ],
    )
    def test_field_validation_names_the_field(self, patch, needle):
        data = SimRequest.make("NCF").to_dict()
        data.update(patch)
        with pytest.raises(WireFormatError, match=needle):
            SimRequest.from_dict(data)

    @pytest.mark.parametrize(
        "tile",
        [{"rows": 512}, {"rows": 64, "cols": 64}, {"pe": {"lanes": 512}}],
    )
    def test_tile_at_the_mac_lane_bound_is_accepted(self, tile):
        data = SimRequest.make("NCF").to_dict()
        data["config"] = {"tile": tile}
        config = SimRequest.from_dict(data).resolved_config()
        assert config.tile.macs_per_group_step == MAX_TILE_MAC_LANES


    @pytest.mark.parametrize(
        "config",
        [
            {"tiles": MAX_TILES},
            {"tile": {"cols": MAX_COLS}},
            {"tile": {"buffer_depth": MAX_BUFFER_DEPTH}},
            {"tile": {"pe": {"shift_window": MAX_SHIFT_WINDOW}}},
            {"clock_mhz": MAX_CLOCK_MHZ},
        ],
    )
    def test_size_at_its_bound_is_accepted(self, config):
        data = SimRequest.make("NCF").to_dict()
        data["config"] = config
        assert SimRequest.from_dict(data).config is not None


class TestEnvelopes:
    def test_parse_body_accepts_object(self):
        raw = json.dumps(_envelope(x=1)).encode()
        assert wire.parse_body(raw)["x"] == 1

    def test_parse_body_rejects_non_json(self):
        with pytest.raises(WireFormatError, match="not valid JSON"):
            wire.parse_body(b"{nope")

    def test_parse_body_rejects_non_object(self):
        with pytest.raises(WireFormatError, match="JSON object"):
            wire.parse_body(b"[1, 2]")

    def test_parse_body_rejects_foreign_schema(self):
        with pytest.raises(WireFormatError, match="envelope schema"):
            wire.parse_body(json.dumps({"schema": 42}).encode())

    def test_parse_simulate_round_trip(self):
        payload = _envelope(request=SimRequest.make("NCF").to_dict())
        assert wire.parse_simulate(payload) == SimRequest.make("NCF")

    def test_parse_simulate_requires_request(self):
        with pytest.raises(WireFormatError, match="'request'"):
            wire.parse_simulate(_envelope())

    @pytest.mark.parametrize(
        "parse,body",
        [
            (wire.parse_simulate, {"request": {"model": "NCF"}}),
            (wire.parse_sweep, {"requests": [{"model": "NCF"}]}),
        ],
        ids=["simulate", "sweep"],
    )
    def test_unknown_envelope_field_is_rejected(self, parse, body):
        # An old client's "wait": false must not block silently.
        with pytest.raises(WireFormatError, match="'wait'"):
            parse(_envelope(**body, wait=False))

    def test_parse_sweep_preserves_order(self):
        payload = _envelope(
            requests=[
                SimRequest.make(m).to_dict() for m in ("NCF", "SNLI", "NCF")
            ]
        )
        requests = wire.parse_sweep(payload)
        assert [r.model for r in requests] == ["NCF", "SNLI", "NCF"]

    def test_parse_sweep_accepts_empty_list(self):
        # Regression: an empty sweep is a valid (trivial) batch, not a
        # wire error -- the daemon answers it with zero results.
        assert wire.parse_sweep(_envelope(requests=[])) == []

    def test_parse_sweep_rejects_non_list(self):
        with pytest.raises(WireFormatError, match="'requests' list"):
            wire.parse_sweep(_envelope(requests={"model": "NCF"}))
        with pytest.raises(WireFormatError, match="'requests' list"):
            wire.parse_sweep(_envelope())

    def test_parse_sweep_error_carries_index(self):
        payload = _envelope(
            requests=[SimRequest.make("NCF").to_dict(), {"model": 5}]
        )
        with pytest.raises(WireFormatError, match=r"requests\[1\]"):
            wire.parse_sweep(payload)

    def test_parse_sweep_enforces_envelope_limit(self):
        entry = SimRequest.make("NCF").to_dict()
        payload = _envelope(
            requests=[entry] * (wire.MAX_SWEEP_REQUESTS + 1)
        )
        with pytest.raises(WireFormatError, match="limit"):
            wire.parse_sweep(payload)


class TestResultEncoding:
    def test_unknown_kind_rejected(self):
        with pytest.raises(WireFormatError, match="kind"):
            wire.decode_result("mystery", {})

    def test_malformed_payload_rejected(self):
        with pytest.raises(WireFormatError, match="malformed"):
            wire.decode_result("workload", {"cycles": 1})

    @pytest.mark.parametrize(
        "nodes,kind", [(1, "workload"), (2, "scaleout")]
    )
    def test_result_round_trips(self, nodes, kind):
        result = execute_request(
            SimRequest.make("NCF", nodes=nodes, partition="model"),
            SessionConfig(sample_strips=2, sample_steps=8),
        )
        envelope = json.loads(json.dumps(wire.encode_result(result)))
        assert envelope["kind"] == kind
        back = wire.decode_result(envelope["kind"], envelope["result"])
        assert type(back) is type(result)
        assert json.dumps(back.to_dict()) == json.dumps(result.to_dict())

    def test_tables_decode(self):
        table = Table("t", ["a"], [[1]])
        envelope = wire.encode_result((table,))
        assert envelope["kind"] == "tables"
        assert wire.decode_result("tables", envelope["result"]) == (table,)

    def test_bare_table_is_rejected(self):
        # Only a non-empty tuple of tables is a storable result, so the
        # wire must refuse a bare Table rather than mislabel it.
        with pytest.raises(TypeError, match="Table"):
            wire.encode_result(Table("t", ["a"]))

    def test_error_body_shape(self):
        body = wire.error_body("boom")
        assert body == {"schema": wire.ENVELOPE_SCHEMA, "error": "boom"}
