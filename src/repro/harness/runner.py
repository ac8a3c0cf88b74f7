"""Cached, parallel simulation sessions.

Every figure of the paper's evaluation needs the same handful of
simulations -- the baseline and a few FPRaker variants per Table-I model
-- yet the seed harness re-simulated them for every figure.  A
:class:`SimulationSession` routes all simulation through one object that

* **memoizes** results by a canonical key over ``(model, config,
  progress, seed, acc_profile)`` plus the sampling parameters, so each
  unique simulation runs exactly once per session;
* **fans out** independent cache misses over a
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs > 1``), with
  bit-identical results to a serial run because every simulation is a
  deterministic function of its key;
* optionally **persists** results to disk (:class:`ResultCache`), so a
  repeated ``python -m repro run`` starts warm.

Experiments call :meth:`SimulationSession.prefetch` with their full
request list up front (enabling the parallel fan-out), then read each
result back through :meth:`simulate` / :meth:`baseline`.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import codec
from repro.core import simulator_for
from repro.core.accelerator import MEMORY_ENGINES, WorkloadResult
from repro.core.config import (
    AcceleratorConfig,
    baseline_paper_config,
    fpraker_paper_config,
    pragmatic_paper_config,
)
from repro.harness.cache import ResultCache
from repro.models import MODEL_ZOO
from repro.scale.partition import SCHEMES
from repro.traces.workloads import build_workloads

# Version of SimRequest's public wire form (``to_dict``/``from_dict``).
# Bump on any incompatible change to the field set or field semantics;
# the service layer rejects mismatched payloads with an actionable
# error instead of misreading them.
WIRE_SCHEMA_VERSION = 1

# Training phases a request may name, in canonical order.
_KNOWN_PHASES = ("AxW", "GxW", "AxG")

# The configuration of a request that names none.  Configs are frozen,
# so one instance serves every key computation instead of a validated
# rebuild per call.
_PAPER_CONFIG = fpraker_paper_config()


class WireFormatError(ValueError):
    """A wire-format payload failed validation.

    Raised by :meth:`SimRequest.from_dict` (and the service layer built
    on it) with messages that name the offending field and the expected
    shape -- HTTP clients see these verbatim, so keep them actionable.
    """


@dataclass(frozen=True)
class SimRequest:
    """One fully-specified simulation.

    Attributes:
        model: Table-I model name.
        config: accelerator configuration (None means the paper's
            FPRaker config).
        progress: training progress in [0, 1].
        seed: workload RNG seed (>= 0).
        acc_profile: per-layer accumulator widths as sorted
            ``(layer, frac_bits)`` pairs (hashable form of the dict).
        phases: training phases to build (None = all three).
        nodes: scale-out compute-node count (1 = the plain single-node
            path, returning a :class:`WorkloadResult`; more than one
            routes through :class:`repro.scale.ScaleOutSimulator` and
            returns a :class:`ScaleOutResult`).
        partition: scale-out partition scheme (``"data"``, ``"model"``,
            ``"pipeline"``); ignored when ``nodes`` is 1.
    """

    model: str
    config: AcceleratorConfig | None = None
    progress: float = field(
        default=0.5, metadata={"minimum": 0.0, "maximum": 1.0}
    )
    seed: int = field(default=0, metadata={"minimum": 0})
    acc_profile: tuple[tuple[str, int], ...] | None = None
    phases: tuple[str, ...] | None = None
    nodes: int = field(default=1, metadata={"minimum": 1})
    partition: str = field(
        default="data", metadata={"choices": SCHEMES}
    )

    @staticmethod
    def make(
        model: str,
        config: AcceleratorConfig | None = None,
        progress: float = 0.5,
        seed: int = 0,
        acc_profile: dict[str, int] | None = None,
        phases: tuple[str, ...] | None = None,
        nodes: int = 1,
        partition: str = "data",
    ) -> "SimRequest":
        """Normalize loose arguments (dict profile) into a request."""
        profile = (
            tuple(sorted(acc_profile.items())) if acc_profile else None
        )
        return SimRequest(
            model=model,
            config=config,
            progress=float(progress),
            seed=int(seed),
            acc_profile=profile,
            phases=tuple(phases) if phases is not None else None,
            nodes=int(nodes),
            partition=partition,
        )

    def resolved_config(self) -> AcceleratorConfig:
        """The effective configuration (None -> paper FPRaker)."""
        return self.config if self.config is not None else _PAPER_CONFIG

    # -- public wire format ------------------------------------------------

    def to_dict(self) -> dict:
        """This request as its versioned public wire form.

        The fields as :func:`repro.codec.to_dict` writes them (a field
        left at its ``None`` default is left out) under a ``schema``
        tag (:data:`WIRE_SCHEMA_VERSION`), so that a future
        incompatible revision is detected instead of misread.
        """
        return {"schema": WIRE_SCHEMA_VERSION, **codec.to_dict(self)}

    @classmethod
    def from_dict(cls, data: object) -> "SimRequest":
        """Validate and build a request from its wire form.

        Every field is checked; a malformed payload raises
        :class:`WireFormatError` naming the field and the expected
        shape, so HTTP clients get errors they can act on.  Only
        ``model`` is required: omitted fields, and ``null`` ones where
        the default is ``None``, take the defaults, and a missing
        ``schema`` tag is read as the current version.

        Args:
            data: a mapping as produced by :meth:`to_dict`.

        Returns:
            The validated :class:`SimRequest`, its ``acc_profile``
            sorted by layer.

        Raises:
            WireFormatError: on any malformed field, unknown field name,
                or wire-schema version mismatch.
        """
        if not isinstance(data, dict):
            raise WireFormatError(
                "request must be a JSON object of SimRequest fields, "
                f"got {type(data).__name__}"
            )
        schema = data.get("schema", WIRE_SCHEMA_VERSION)
        if schema != WIRE_SCHEMA_VERSION:
            raise WireFormatError(
                f"unsupported wire schema {schema!r}; this build speaks "
                f"schema {WIRE_SCHEMA_VERSION}"
            )
        payload = {name: data[name] for name in data if name != "schema"}
        try:
            request = codec.from_dict(cls, payload, "")
        except ValueError as exc:
            raise WireFormatError(str(exc)) from None
        if request.model not in MODEL_ZOO:
            raise WireFormatError(
                f"model must be a Table-I model, got {request.model!r}; "
                f"known models: {', '.join(sorted(MODEL_ZOO))}"
            )
        profile = request.acc_profile
        if profile is not None:
            if any(bits < 0 for _, bits in profile):
                raise WireFormatError(
                    "acc_profile must be a list of [layer_name, frac_bits] "
                    f"pairs with frac_bits >= 0, got {data['acc_profile']!r}"
                )
            # As make() builds it: sorted by layer, and None if empty.
            profile = tuple(sorted(dict(profile).items())) or None
            request = replace(request, acc_profile=profile)
        if request.phases is not None and (
            not request.phases
            or not set(request.phases).issubset(_KNOWN_PHASES)
        ):
            raise WireFormatError(
                "phases must be a non-empty list drawn from "
                f"{list(_KNOWN_PHASES)}, got {data['phases']!r}"
            )
        return request


def as_request(entry: SimRequest | str | dict) -> SimRequest:
    """Coerce a :class:`SimRequest`, a wire-form dict or a bare model
    name into a request (a dict is validated by
    :meth:`SimRequest.from_dict`)."""
    if isinstance(entry, SimRequest):
        return entry
    if isinstance(entry, str):
        return SimRequest.make(entry)
    return SimRequest.from_dict(entry)


def canonical_key(request: SimRequest, config: SessionConfig) -> str:
    """Stable string key identifying a simulation's full input set.

    The one place that names which :class:`SessionConfig` fields key a
    result: the sampling fields, ``sim_seed`` and ``memory_engine``
    (``jobs`` and ``cache_dir`` never change one).  Two requests that
    resolve to the same configuration (e.g. ``None`` and an
    explicitly-constructed paper config) share a key; any change
    to the config tree, the workload parameters, the sampling setup, or
    the memory engine produces a distinct key.  The analytic baseline
    is priced identically under both memory engines, so its keys ignore
    the engine -- roofline and hierarchy sessions share one cached
    baseline per (model, progress, seed).  A one-node request normalizes
    its partition scheme away (every scheme is bit-identical to the
    unpartitioned path at N=1), so scale-out sweeps share their N=1
    anchor with plain single-node runs.
    """
    accelerator = request.resolved_config()
    spec = {
        "model": request.model,
        "config": codec.to_dict(accelerator),
        "progress": request.progress,
        "seed": request.seed,
        "acc_profile": list(request.acc_profile or ()),
        "phases": list(request.phases) if request.phases is not None else None,
        "sample_strips": config.sample_strips,
        "sample_steps": config.sample_steps,
        "sim_seed": config.sim_seed,
        "memory_engine": (
            "roofline"
            if accelerator.name == "baseline"
            else config.memory_engine
        ),
        "nodes": request.nodes,
        "partition": None if request.nodes == 1 else request.partition,
    }
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def execute_request(
    request: SimRequest, config: SessionConfig
) -> WorkloadResult:
    """Run one simulation cold (module-level so worker processes can
    receive it by name).

    Args:
        request: the simulation to run.
        config: the session configuration it runs under.  The sampling
            fields, ``sim_seed`` and ``memory_engine`` (FPRaker-style
            simulators only; the analytic baseline is roofline-priced
            either way) reach the one simulator it builds (every
            node's, when ``request.nodes > 1``), and
            :attr:`SessionConfig.workload_cache_spec` is forwarded to
            :func:`repro.traces.workloads.build_workloads`.

    Returns:
        The simulated :class:`WorkloadResult` -- or, when
        ``request.nodes > 1``, the aggregated
        :class:`repro.scale.ScaleOutResult`.
    """
    kwargs = {}
    if request.phases is not None:
        kwargs["phases"] = request.phases
    workloads = build_workloads(
        request.model,
        progress=request.progress,
        seed=request.seed,
        acc_profile=dict(request.acc_profile) if request.acc_profile else None,
        cache=config.workload_cache_spec,
        **kwargs,
    )
    simulator = simulator_for(
        request.resolved_config(),
        sample_strips=config.sample_strips,
        sample_steps=config.sample_steps,
        seed=config.sim_seed,
        memory_engine=config.memory_engine,
    )
    if request.nodes == 1:
        return simulator.simulate_workload(workloads, model=request.model)
    from repro.scale.scaleout import ScaleOutSimulator

    return ScaleOutSimulator(
        simulator, nodes=request.nodes, scheme=request.partition
    ).simulate_workload(workloads, model=request.model)


@dataclass(frozen=True)
class SessionConfig:
    """Every knob of a :class:`SimulationSession`, as one frozen value.

    Validated on construction, hashable, and shared verbatim by the
    in-process API (:mod:`repro.api`), the CLI, the ``repro serve``
    daemon and :func:`execute_request` -- one configuration object for
    every front end.  ``jobs`` and ``cache_dir`` never change a result;
    every other field is part of :func:`canonical_key`.

    Attributes:
        jobs: worker processes for prefetch fan-out (values below 1 are
            clamped to serial).
        cache_dir: directory for on-disk result persistence, with
            generated workload tensors under ``cache_dir/workloads``
            (None keeps both in memory only).
        sample_strips: operand strips sampled per layer-phase.
        sample_steps: reduction groups per strip.
        sim_seed: operand-sampling RNG seed (>= 0).
        memory_engine: ``"roofline"`` or ``"hierarchy"``.
    """

    jobs: int = 1
    cache_dir: str | None = None
    sample_strips: int = field(default=8, metadata={"minimum": 1})
    sample_steps: int = field(default=32, metadata={"minimum": 1})
    sim_seed: int = field(default=1234, metadata={"minimum": 0})
    memory_engine: str = field(
        default="roofline", metadata={"choices": MEMORY_ENGINES}
    )

    def __post_init__(self) -> None:
        """Normalize ``jobs`` and ``cache_dir``, then check every field
        (frozen-safe)."""
        object.__setattr__(self, "jobs", max(1, int(self.jobs)))
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", os.fspath(self.cache_dir))
        codec.check(self)

    @property
    def workload_cache_spec(self) -> str:
        """Workload-cache spec forwarded to workers: npz tensors under
        ``cache_dir/workloads``, or the in-memory cache without one."""
        if self.cache_dir is None:
            return "default"
        return str(Path(self.cache_dir) / "workloads")

    def to_dict(self) -> dict:
        """This configuration as its versioned public wire form (the
        ``config`` object of the daemon's ``/stats``)."""
        return {"schema": WIRE_SCHEMA_VERSION, **codec.to_dict(self)}


@dataclass
class SessionStats:
    """Work accounting of one session.

    Attributes:
        hits: requests answered from the in-memory memo.
        disk_hits: requests answered from the on-disk cache.
        simulations: cold simulations actually executed -- the
            acceptance counter: equals the number of *unique* requests
            a session has seen (minus disk hits).
    """

    hits: int = 0
    disk_hits: int = 0
    simulations: int = 0


class SimulationSession:
    """Memoizing, optionally parallel front end to all simulators.

    Build one from a :class:`SessionConfig` (or with
    :func:`repro.api.session`)::

        session = SimulationSession(config=SessionConfig(jobs=4))

    Args:
        config: the session configuration (None = all defaults).
    """

    def __init__(self, config: SessionConfig | None = None) -> None:
        self.config = config if config is not None else SessionConfig()
        self.disk = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self.stats = SessionStats()
        self._memo: dict[str, WorkloadResult] = {}

    # -- lookup ------------------------------------------------------------

    def key_of(self, request: SimRequest) -> str:
        """Canonical key of a request under this session's configuration."""
        return canonical_key(request, self.config)

    @property
    def unique_simulations(self) -> int:
        """Distinct simulations this session holds results for."""
        return len(self._memo)

    def simulate(
        self,
        model: str,
        config: AcceleratorConfig | None = None,
        progress: float = 0.5,
        seed: int = 0,
        acc_profile: dict[str, int] | None = None,
        phases: tuple[str, ...] | None = None,
    ) -> WorkloadResult:
        """Simulate (or fetch) one model under one configuration.

        Args:
            model: Table-I model name.
            config: accelerator config (None = paper FPRaker).
            progress: training progress in [0, 1].
            seed: workload RNG seed.
            acc_profile: optional per-layer accumulator widths.
            phases: training phases to include (None = all three).

        Returns:
            The (possibly cached) :class:`WorkloadResult`.
        """
        request = SimRequest.make(
            model, config, progress, seed, acc_profile, phases
        )
        return self._get(request)

    def baseline(
        self,
        model: str,
        progress: float = 0.5,
        seed: int = 0,
        phases: tuple[str, ...] | None = None,
    ) -> WorkloadResult:
        """Simulate (or fetch) the bit-parallel baseline."""
        return self.simulate(
            model, baseline_paper_config(), progress, seed, phases=phases
        )

    def pragmatic(
        self, model: str, progress: float = 0.5, seed: int = 0
    ) -> WorkloadResult:
        """Simulate (or fetch) the Pragmatic-FP comparison point."""
        return self.simulate(model, pragmatic_paper_config(), progress, seed)

    def scaleout(
        self,
        model: str,
        nodes: int,
        partition: str = "data",
        config: AcceleratorConfig | None = None,
        progress: float = 0.5,
        seed: int = 0,
    ):
        """Simulate (or fetch) a multi-node scale-out run.

        Args:
            model: Table-I model name.
            nodes: compute-node count (>= 1).
            partition: ``"data"``, ``"model"`` or ``"pipeline"``.
            config: per-node accelerator config (None = paper FPRaker).
            progress: training progress in [0, 1].
            seed: workload RNG seed.

        Returns:
            A :class:`repro.scale.ScaleOutResult` for ``nodes > 1``; the
            plain single-node :class:`WorkloadResult` at ``nodes == 1``
            (same canonical key as :meth:`simulate`, so the N=1 anchor
            of a sweep shares its cache entry with ordinary runs).
        """
        request = SimRequest.make(
            model,
            config,
            progress,
            seed,
            nodes=nodes,
            partition=partition,
        )
        return self._get(request)

    def resolve(self, request: SimRequest) -> WorkloadResult:
        """Simulate (or fetch) one fully-specified request.

        The request-level entry point :func:`repro.api.sweep` and the
        service layer share with the keyword helpers above.

        Args:
            request: the simulation to resolve.

        Returns:
            The (possibly cached) result.
        """
        return self._get(request)

    # -- execution ---------------------------------------------------------

    def prefetch(self, requests: list[SimRequest]) -> None:
        """Ensure every request's result is in the memo.

        Deduplicates, consults the disk cache, then runs the remaining
        cold simulations -- over the process pool when ``jobs > 1``.
        Results are identical to serial execution because each
        simulation is a deterministic function of its request.

        Args:
            requests: simulations an experiment is about to read.
        """
        todo: dict[str, SimRequest] = {}
        for request in requests:
            key = self.key_of(request)
            if key in self._memo or key in todo:
                continue
            if self.disk is not None:
                cached = self.disk.load(key)
                if cached is not None:
                    self._memo[key] = cached
                    self.stats.disk_hits += 1
                    continue
            todo[key] = request
        if not todo:
            return
        items = list(todo.items())
        if self.config.jobs == 1 or len(items) == 1:
            results = [
                execute_request(request, self.config) for _, request in items
            ]
        else:
            with ProcessPoolExecutor(max_workers=self.config.jobs) as pool:
                futures = [
                    pool.submit(execute_request, request, self.config)
                    for _, request in items
                ]
                results = [future.result() for future in futures]
        self.stats.simulations += len(items)
        for (key, _), result in zip(items, results):
            self._memo[key] = result
            if self.disk is not None:
                self.disk.store(key, result)

    def _get(self, request: SimRequest) -> WorkloadResult:
        """A memo hit, or :meth:`prefetch` of the one request."""
        key = self.key_of(request)
        if key in self._memo:
            self.stats.hits += 1
        else:
            self.prefetch([request])
        return self._memo[key]
