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
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.accelerator import AcceleratorSimulator, WorkloadResult
from repro.core.baseline import BaselineAccelerator
from repro.core.config import (
    AcceleratorConfig,
    accelerator_config_from_dict,
    baseline_paper_config,
    fpraker_paper_config,
    pragmatic_paper_config,
)
from repro.core.pragmatic import PragmaticFPAccelerator
from repro.harness.cache import ResultCache
from repro.traces.workloads import build_workloads

# Version of SimRequest's public wire form (``to_dict``/``from_dict``).
# Bump on any incompatible change to the field set or field semantics;
# the service layer rejects mismatched payloads with an actionable
# error instead of misreading them.
WIRE_SCHEMA_VERSION = 1

# Training phases a request may name, in canonical order.
_KNOWN_PHASES = ("AxW", "GxW", "AxG")


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
        seed: workload RNG seed.
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
    progress: float = 0.5
    seed: int = 0
    acc_profile: tuple[tuple[str, int], ...] | None = None
    phases: tuple[str, ...] | None = None
    nodes: int = 1
    partition: str = "data"

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
        return self.config if self.config is not None else fpraker_paper_config()

    # -- public wire format ------------------------------------------------

    def to_dict(self) -> dict:
        """This request as its versioned public wire form.

        The inverse of :meth:`from_dict`; the dict is JSON-ready and
        carries a ``schema`` tag (:data:`WIRE_SCHEMA_VERSION`) so future
        incompatible revisions are detected instead of misread.

        Returns:
            A JSON-serializable dict of every request field.
        """
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "model": self.model,
            "config": asdict(self.config) if self.config is not None else None,
            "progress": self.progress,
            "seed": self.seed,
            "acc_profile": (
                [list(pair) for pair in self.acc_profile]
                if self.acc_profile is not None
                else None
            ),
            "phases": (
                list(self.phases) if self.phases is not None else None
            ),
            "nodes": self.nodes,
            "partition": self.partition,
        }

    @classmethod
    def from_dict(cls, data: object) -> "SimRequest":
        """Validate and build a request from its wire form.

        Every field is checked individually; a malformed payload raises
        :class:`WireFormatError` naming the field and the expected shape
        (never a bare ``KeyError``), so HTTP clients get errors they can
        act on.  Only ``model`` is required -- omitted fields take the
        dataclass defaults, and a missing ``schema`` tag is accepted as
        the current version.

        Args:
            data: a mapping as produced by :meth:`to_dict`.

        Returns:
            The validated :class:`SimRequest`.

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
        known = (
            "schema", "model", "config", "progress", "seed",
            "acc_profile", "phases", "nodes", "partition",
        )
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise WireFormatError(
                f"unknown request field(s) {', '.join(map(repr, unknown))}; "
                f"known fields: {', '.join(known)}"
            )
        model = data.get("model")
        if not isinstance(model, str) or not model:
            raise WireFormatError(
                "field 'model' is required and must be a non-empty "
                "Table-I model name string"
            )
        config = data.get("config")
        if config is not None:
            try:
                config = accelerator_config_from_dict(config)
            except ValueError as exc:
                raise WireFormatError(f"field 'config' is invalid: {exc}")
        progress = data.get("progress", 0.5)
        if (
            isinstance(progress, bool)
            or not isinstance(progress, (int, float))
            or not 0.0 <= float(progress) <= 1.0
        ):
            raise WireFormatError(
                "field 'progress' must be a number in [0, 1], "
                f"got {progress!r}"
            )
        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise WireFormatError(
                f"field 'seed' must be an integer, got {seed!r}"
            )
        acc_profile = data.get("acc_profile")
        profile_dict: dict[str, int] | None = None
        if acc_profile is not None:
            if not isinstance(acc_profile, (list, tuple)) or not all(
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and isinstance(pair[0], str)
                and isinstance(pair[1], int)
                and not isinstance(pair[1], bool)
                for pair in acc_profile
            ):
                raise WireFormatError(
                    "field 'acc_profile' must be null or a list of "
                    "[layer_name, frac_bits] pairs, got "
                    f"{acc_profile!r}"
                )
            profile_dict = dict(acc_profile)
        phases = data.get("phases")
        if phases is not None:
            if not isinstance(phases, (list, tuple)) or not phases or not all(
                isinstance(phase, str) and phase in _KNOWN_PHASES
                for phase in phases
            ):
                raise WireFormatError(
                    "field 'phases' must be null or a non-empty list "
                    f"drawn from {list(_KNOWN_PHASES)}, got {phases!r}"
                )
            phases = tuple(phases)
        nodes = data.get("nodes", 1)
        if isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < 1:
            raise WireFormatError(
                f"field 'nodes' must be an integer >= 1, got {nodes!r}"
            )
        partition = data.get("partition", "data")
        if partition not in ("data", "model", "pipeline"):
            raise WireFormatError(
                "field 'partition' must be one of 'data', 'model', "
                f"'pipeline', got {partition!r}"
            )
        return cls.make(
            model=model,
            config=config,
            progress=float(progress),
            seed=seed,
            acc_profile=profile_dict,
            phases=phases,
            nodes=nodes,
            partition=partition,
        )


def canonical_key(
    request: SimRequest,
    sample_strips: int,
    sample_steps: int,
    sim_seed: int,
    memory_engine: str = "roofline",
) -> str:
    """Stable string key identifying a simulation's full input set.

    Two requests that resolve to the same configuration (e.g. ``None``
    and an explicitly-constructed paper config) share a key; any change
    to the config tree, the workload parameters, the sampling setup, or
    the memory engine produces a distinct key.  The analytic baseline
    is priced identically under both memory engines, so its keys ignore
    the engine -- roofline and hierarchy sessions share one cached
    baseline per (model, progress, seed).  A one-node request normalizes
    its partition scheme away (every scheme is bit-identical to the
    unpartitioned path at N=1), so scale-out sweeps share their N=1
    anchor with plain single-node runs.
    """
    config = request.resolved_config()
    spec = {
        "model": request.model,
        "config": asdict(config),
        "progress": request.progress,
        "seed": request.seed,
        "acc_profile": list(request.acc_profile or ()),
        "phases": list(request.phases) if request.phases is not None else None,
        "sample_strips": sample_strips,
        "sample_steps": sample_steps,
        "sim_seed": sim_seed,
        "memory_engine": (
            "roofline" if config.name == "baseline" else memory_engine
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
            either way) reach the simulator, and
            :attr:`SessionConfig.workload_cache_spec` is forwarded to
            :func:`repro.traces.workloads.build_workloads`.

    Returns:
        The simulated :class:`WorkloadResult` -- or, when
        ``request.nodes > 1``, the aggregated
        :class:`repro.scale.ScaleOutResult`.
    """
    accelerator = request.resolved_config()
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
    if request.nodes > 1:
        from repro.scale.scaleout import ScaleOutSimulator

        simulator = ScaleOutSimulator(
            accelerator,
            nodes=request.nodes,
            scheme=request.partition,
            sample_strips=config.sample_strips,
            sample_steps=config.sample_steps,
            seed=config.sim_seed,
            memory_engine=config.memory_engine,
        )
        return simulator.simulate_workload(workloads, model=request.model)
    if accelerator.name == "baseline":
        return BaselineAccelerator(accelerator).simulate_workload(workloads)
    simulator_cls = (
        PragmaticFPAccelerator
        if accelerator.name == "pragmatic-fp"
        else AcceleratorSimulator
    )
    simulator = simulator_cls(
        accelerator,
        sample_strips=config.sample_strips,
        sample_steps=config.sample_steps,
        seed=config.sim_seed,
        memory_engine=config.memory_engine,
    )
    return simulator.simulate_workload(workloads)


@dataclass(frozen=True)
class SessionConfig:
    """Every knob of a :class:`SimulationSession`, as one frozen value.

    Validated on construction, hashable, and shared verbatim by the
    in-process API (:mod:`repro.api`), the CLI, the ``repro serve``
    daemon and :func:`execute_request` -- one configuration object for
    every front end.  ``jobs``, ``cache_dir`` and ``workload_cache``
    never change a result; every other field is part of
    :func:`canonical_key`.

    Attributes:
        jobs: worker processes for prefetch fan-out (values below 1 are
            clamped to serial).
        cache_dir: directory for on-disk result persistence (None
            disables it).
        sample_strips: operand strips sampled per layer-phase.
        sample_steps: reduction groups per strip.
        sim_seed: operand-sampling RNG seed.
        memory_engine: ``"roofline"`` or ``"hierarchy"``.
        workload_cache: workload-reuse policy -- ``True`` (shared,
            persisted under ``cache_dir/workloads`` when ``cache_dir``
            is set), ``False`` (rebuild per simulation), or a disk
            directory.
    """

    jobs: int = 1
    cache_dir: str | None = None
    sample_strips: int = 8
    sample_steps: int = 32
    sim_seed: int = 1234
    memory_engine: str = "roofline"
    workload_cache: bool | str = True

    def __post_init__(self) -> None:
        """Validate and normalize every field (frozen-safe)."""
        object.__setattr__(self, "jobs", max(1, int(self.jobs)))
        for name in ("sample_strips", "sample_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if isinstance(self.sim_seed, bool) or not isinstance(
            self.sim_seed, int
        ):
            raise ValueError(
                f"sim_seed must be an integer, got {self.sim_seed!r}"
            )
        if self.memory_engine not in ("roofline", "hierarchy"):
            raise ValueError(f"unknown memory engine {self.memory_engine!r}")
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", os.fspath(self.cache_dir))
        if not isinstance(self.workload_cache, bool):
            object.__setattr__(
                self, "workload_cache", os.fspath(self.workload_cache)
            )

    @property
    def workload_cache_spec(self) -> str | None:
        """Workload-cache spec forwarded to workers (None = cold builds)."""
        if self.workload_cache is False:
            return None
        if self.workload_cache is True:
            return (
                str(Path(self.cache_dir) / "workloads")
                if self.cache_dir is not None
                else "default"
            )
        return str(self.workload_cache)

    def to_dict(self) -> dict:
        """This configuration as its versioned public wire form."""
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "sample_strips": self.sample_strips,
            "sample_steps": self.sample_steps,
            "sim_seed": self.sim_seed,
            "memory_engine": self.memory_engine,
            "workload_cache": self.workload_cache,
        }

    @classmethod
    def from_dict(cls, data: object) -> "SessionConfig":
        """Validate and build a configuration from its wire form.

        Args:
            data: a mapping as produced by :meth:`to_dict`; omitted
                fields take the defaults.

        Returns:
            The validated :class:`SessionConfig`.

        Raises:
            WireFormatError: on a non-mapping payload, unknown field, or
                schema mismatch; ``ValueError`` surfaces field-level
                validation failures from ``__post_init__``.
        """
        if not isinstance(data, dict):
            raise WireFormatError(
                "session config must be a JSON object of SessionConfig "
                f"fields, got {type(data).__name__}"
            )
        schema = data.get("schema", WIRE_SCHEMA_VERSION)
        if schema != WIRE_SCHEMA_VERSION:
            raise WireFormatError(
                f"unsupported wire schema {schema!r}; this build speaks "
                f"schema {WIRE_SCHEMA_VERSION}"
            )
        known = (
            "schema", "jobs", "cache_dir", "sample_strips", "sample_steps",
            "sim_seed", "memory_engine", "workload_cache",
        )
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise WireFormatError(
                f"unknown config field(s) {', '.join(map(repr, unknown))}; "
                f"known fields: {', '.join(known)}"
            )
        values = {
            "jobs": data.get("jobs"),
            "cache_dir": data.get("cache_dir"),
            "sample_strips": data.get("sample_strips"),
            "sample_steps": data.get("sample_steps"),
            "sim_seed": data.get("sim_seed"),
            "memory_engine": data.get("memory_engine"),
            "workload_cache": data.get("workload_cache"),
        }
        kwargs = {}
        for name, value in values.items():
            # None never survives validation for any field, so absent
            # and null both mean "use the default".
            if value is not None:
                kwargs[name] = value
        return cls(**kwargs)


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
        """Canonical key of a request under this session's sampling."""
        return canonical_key(
            request,
            self.config.sample_strips,
            self.config.sample_steps,
            self.config.sim_seed,
            self.config.memory_engine,
        )

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
            results = [self._execute(request) for _, request in items]
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
        """Memo -> disk -> cold simulation, updating the counters."""
        key = self.key_of(request)
        if key in self._memo:
            self.stats.hits += 1
            return self._memo[key]
        if self.disk is not None:
            cached = self.disk.load(key)
            if cached is not None:
                self.stats.disk_hits += 1
                self._memo[key] = cached
                return cached
        result = self._execute(request)
        self._memo[key] = result
        if self.disk is not None:
            self.disk.store(key, result)
        return result

    def _execute(self, request: SimRequest) -> WorkloadResult:
        """Run one cold simulation in-process."""
        self.stats.simulations += 1
        return execute_request(request, self.config)
