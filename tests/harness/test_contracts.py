"""The contracts that warm results rest on, checked by running them.

A warm run is right only while two contracts hold:

* **Keys.** Every input that changes a result changes its cache key:
  each field of :class:`SimRequest` and :class:`SessionConfig` (the two
  values ``execute_request`` receives), and each parameter of
  :func:`workload_key` and :func:`table_key`.  Each table below names
  every field, so a new field fails the test until it is classified.
* **Serialization.** Every class with ``to_dict``/``from_dict``, built
  with each field at a distinct non-default value, comes back equal
  through JSON text.  Distinct values make a key read into the wrong
  field fail on every run.
"""

import dataclasses
import importlib
import inspect
import itertools
import json
import pkgutil
import types
import typing

import pytest

import repro
from repro.core.accelerator import LayerPhaseResult, WorkloadResult
from repro.core.config import pragmatic_paper_config
from repro.core.stats import LaneLedger, SimCounters, TermLedger
from repro.energy.model import CoreEnergy, EnergyBreakdown
from repro.harness.cache import table_key
from repro.harness.report import Table
from repro.harness.runner import SessionConfig, SimRequest, SimulationSession
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

# Every class under ``repro`` that defines both methods.
SERIALIZED = (
    CommStats,
    CoreEnergy,
    EnergyBreakdown,
    LaneLedger,
    LayerPhaseResult,
    MemoryTrafficResult,
    NodeSummary,
    ScaleOutResult,
    SessionConfig,
    SimCounters,
    SimRequest,
    Table,
    TermLedger,
    WorkloadResult,
)

# These three validate their input, so they are built by hand.
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


def serialized_classes():
    """Every class under ``repro`` that defines to_dict and from_dict."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                inspect.isclass(value)
                and value.__module__ == module.__name__
                and {"to_dict", "from_dict"} <= set(vars(value))
            ):
                found.add(value)
    return found


def build(hint, counter):
    """A value of type ``hint``; scalars are distinct per ``counter``."""
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(
            **{
                f.name: build(hints[f.name], counter)
                for f in dataclasses.fields(hint)
            }
        )
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        return [build(args[0], counter) for _ in range(2)]
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        return build(inner, counter)
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
    names = []
    for f in dataclasses.fields(obj):
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        else:
            continue
        if getattr(obj, f.name) == default:
            names.append(f.name)
    return names


def test_table_lists_every_serialized_class():
    assert serialized_classes() == set(SERIALIZED)


@pytest.mark.parametrize("cls", SERIALIZED, ids=lambda cls: cls.__name__)
def test_round_trip_through_json_is_exact(cls):
    if cls in HAND_BUILT:
        obj = HAND_BUILT[cls]
    else:
        obj = build(cls, itertools.count(1))
    assert fields_at_default(obj) == []
    data = json.loads(json.dumps(obj.to_dict()))
    assert cls.from_dict(data) == obj
