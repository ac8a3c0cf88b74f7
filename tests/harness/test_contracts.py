"""The contracts that warm results rest on, checked by running them.

A warm run is right only while two contracts hold:

* **Keys.** Every input that changes a result changes its cache key:
  each field of :class:`SimRequest` and :class:`SessionConfig` (the two
  values ``execute_request`` receives), and each parameter of
  :func:`workload_key` and :func:`table_key`.  Each table below names
  every field, so a new field fails the test until it is classified.
* **Serialization.** Every dataclass :mod:`repro.codec` serializes
  (and ``Table``, which keeps its own pair), built with each field at a
  distinct non-default value, comes back equal through JSON text.
  Distinct values make a key read into the wrong field fail on every
  run.  Three cache entries written before the codec pin its bytes.
"""

import dataclasses
import inspect
import itertools
import json
import types
import typing
from pathlib import Path

import pytest

from repro import codec
from repro.core.accelerator import LayerPhaseResult, WorkloadResult
from repro.core.config import (
    AcceleratorConfig,
    PEConfig,
    TileConfig,
    pragmatic_paper_config,
)
from repro.core.stats import LaneLedger, SimCounters, TermLedger
from repro.energy.model import CoreEnergy, EnergyBreakdown
from repro.fp.accumulator import AccumulatorSpec
from repro.harness.cache import ResultCache, decode_tagged, table_key
from repro.harness.report import Table
from repro.harness.runner import (
    SessionConfig,
    SimRequest,
    SimulationSession,
    canonical_key,
    execute_request,
)
from repro.memory.traffic import MemoryTrafficResult
from repro.scale.interconnect import CommStats
from repro.scale.scaleout import NodeSummary, ScaleOutResult
from repro.traces.workload_cache import workload_key

# -- keys ------------------------------------------------------------------

# Two documented normalizations shape the base: a one-node request drops
# its partition scheme from the key, so the base runs on two nodes; and
# baseline keys ignore the memory engine, so the base keeps the default
# (FPRaker) accelerator config.
BASE_REQUEST = SimRequest.make("NCF", nodes=2)

REQUEST_CHANGES = {
    "model": "SNLI",
    "config": pragmatic_paper_config(),
    "progress": 0.25,
    "seed": 7,
    "acc_profile": (("fc1", 10),),
    "phases": ("AxW",),
    "nodes": 3,
    "partition": "pipeline",
}

SESSION_CHANGES = {
    "jobs": 4,
    "cache_dir": "results",
    "sample_strips": 4,
    "sample_steps": 16,
    "sim_seed": 99,
    "memory_engine": "hierarchy",
}

# Parallelism and cache plumbing: they never change a result.
UNKEYED = ("jobs", "cache_dir")

WORKLOAD_BASE = {
    "model": "NCF",
    "progress": 0.5,
    "phases": ("AxW", "GxW", "AxG"),
    "sample_size": 4096,
    "seed": 0,
    "acc_profile": None,
}
WORKLOAD_CHANGES = {
    "model": "SNLI",
    "progress": 0.25,
    "phases": ("AxW",),
    "sample_size": 512,
    "seed": 3,
    "acc_profile": {"fc1": 10},
}
TABLE_BASE = {"experiment": "fig1", "arguments": {"models": ["NCF"]}}
TABLE_CHANGES = {"experiment": "fig2", "arguments": {"models": ["SNLI"]}}


def session_key(request=BASE_REQUEST, **fields):
    """Canonical key of a request under a session built from ``fields``."""
    return SimulationSession(config=SessionConfig(**fields)).key_of(request)


def test_tables_name_every_field():
    assert set(REQUEST_CHANGES) == {
        f.name for f in dataclasses.fields(SimRequest)
    }
    assert set(SESSION_CHANGES) == {
        f.name for f in dataclasses.fields(SessionConfig)
    }


@pytest.mark.parametrize("name", REQUEST_CHANGES)
def test_request_field_changes_the_key(name):
    value = REQUEST_CHANGES[name]
    changed = dataclasses.replace(BASE_REQUEST, **{name: value})
    assert session_key(changed) != session_key()


@pytest.mark.parametrize("name", SESSION_CHANGES)
def test_session_field_changes_the_key_unless_plumbing(name):
    changed = session_key(**{name: SESSION_CHANGES[name]})
    assert (changed != session_key()) == (name not in UNKEYED)


@pytest.mark.parametrize(
    "builder,base,changes",
    [
        (workload_key, WORKLOAD_BASE, WORKLOAD_CHANGES),
        (table_key, TABLE_BASE, TABLE_CHANGES),
    ],
    ids=["workload_key", "table_key"],
)
def test_every_parameter_changes_the_key(builder, base, changes):
    assert set(inspect.signature(builder).parameters) == set(changes)
    for name, value in changes.items():
        assert builder(**{**base, name: value}) != builder(**base), name


def test_keys_sort_their_top_level_names():
    for key in (
        session_key(),
        workload_key(**WORKLOAD_BASE),
        table_key(**TABLE_BASE),
    ):
        names = list(json.loads(key))
        assert names == sorted(names), key


# -- serialization ---------------------------------------------------------

# The classes the codec writes and reads start from the result kinds the
# caches and the daemon store and the two wire contracts; every
# dataclass their fields reach is serialized with them.
CODEC_ROOTS = (WorkloadResult, ScaleOutResult, SimRequest, SessionConfig)

# Every serialized class: the codec's, and Table with its own pair.
SERIALIZED = (
    AcceleratorConfig,
    AccumulatorSpec,
    CommStats,
    CoreEnergy,
    EnergyBreakdown,
    LaneLedger,
    LayerPhaseResult,
    MemoryTrafficResult,
    NodeSummary,
    PEConfig,
    ScaleOutResult,
    SessionConfig,
    SimCounters,
    SimRequest,
    Table,
    TermLedger,
    TileConfig,
    WorkloadResult,
)

# These validate their input, so they are built by hand.
HAND_BUILT = {
    SimRequest: SimRequest.make(
        "SNLI",
        config=pragmatic_paper_config(tiles=12, clock_mhz=500.0),
        progress=0.25,
        seed=7,
        acc_profile={"fc1": 11, "fc2": 13},
        phases=("GxW", "AxG"),
        nodes=3,
        partition="pipeline",
    ),
    SessionConfig: SessionConfig(
        jobs=3,
        cache_dir="results",
        sample_strips=4,
        sample_steps=16,
        sim_seed=99,
        memory_engine="hierarchy",
    ),
    Table: Table("Speedup", ["model", "speedup"], [["NCF", 1.5], ["SNLI", 2]]),
}

# One roofline and one hierarchy NCF AxW result and one 2-node
# scale-out result, each stored as its ResultCache entry by the code
# before the codec: its bytes, key included, must not change.
ENTRIES = Path(__file__).parent / "fixtures" / "cache_entries"
PINNED_SAMPLING = SessionConfig(sample_strips=1, sample_steps=4)
PINNED_ENTRIES = {
    "workload_roofline": (
        SimRequest.make("NCF", phases=("AxW",)),
        PINNED_SAMPLING,
    ),
    "workload_hierarchy": (
        SimRequest.make("NCF", phases=("AxW",)),
        dataclasses.replace(PINNED_SAMPLING, memory_engine="hierarchy"),
    ),
    "scaleout_2node": (
        SimRequest.make("NCF", phases=("AxW",), nodes=2),
        PINNED_SAMPLING,
    ),
}


def leaf_types(hint):
    """The classes a field type is built from (``list[X] | None`` -> X)."""
    args = typing.get_args(hint)
    if not args:
        return [hint]
    return [leaf for arg in args for leaf in leaf_types(arg)]


def codec_classes():
    """Every dataclass reachable from CODEC_ROOTS through field types."""
    found, todo = set(), list(CODEC_ROOTS)
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.add(cls)
            for hint in typing.get_type_hints(cls).values():
                todo += filter(dataclasses.is_dataclass, leaf_types(hint))
    return found


def default_of(f):
    """The default of dataclass field ``f`` (MISSING if none)."""
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return f.default


def build(hint, counter, default=dataclasses.MISSING, choices=()):
    """A value of type ``hint`` that is not ``default``; scalars are
    distinct per ``counter``."""
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(
            **{
                f.name: build(
                    hints[f.name],
                    counter,
                    default_of(f),
                    f.metadata.get("choices", ()),
                )
                for f in dataclasses.fields(hint)
            }
        )
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        return [build(args[0], counter) for _ in range(2)]
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        return build(inner, counter, default, choices)
    if hint is bool:
        return not default
    if choices:
        return next(choice for choice in choices if choice != default)
    n = next(counter)
    while n == default:
        n = next(counter)
    if hint is int:
        return n
    if hint is float:
        return n + 0.5
    if hint is str:
        return f"s{n}"
    raise TypeError(f"no sample value for {hint!r}; build it by hand")


def fields_at_default(obj):
    """Names of the fields of ``obj`` that hold their default value."""
    return [
        f.name
        for f in dataclasses.fields(obj)
        if getattr(obj, f.name) == default_of(f)
    ]


def test_table_lists_every_serialized_class():
    assert codec_classes() | {Table} == set(SERIALIZED)


@pytest.mark.parametrize("cls", SERIALIZED, ids=lambda cls: cls.__name__)
def test_round_trip_through_json_is_exact(cls):
    if cls in HAND_BUILT:
        obj = HAND_BUILT[cls]
    else:
        obj = build(cls, itertools.count(1))
    assert fields_at_default(obj) == []
    if "from_dict" in vars(cls):  # the public wire pair of its own
        back = cls.from_dict(json.loads(json.dumps(obj.to_dict())))
    else:
        data = json.loads(json.dumps(codec.to_dict(obj)))
        back = codec.from_dict(cls, data, cls.__name__)
    assert back == obj


@pytest.mark.parametrize("name", PINNED_ENTRIES)
def test_cache_entry_bytes_are_pinned(name, tmp_path):
    request, config = PINNED_ENTRIES[name]
    text = (ENTRIES / f"{name}.json").read_bytes()
    result = execute_request(request, config)
    cache = ResultCache(tmp_path)
    path = cache.store(canonical_key(request, config), result)
    assert path.read_bytes() == text
    entry = json.loads(text)
    assert decode_tagged(entry["kind"], entry["result"]) == result
