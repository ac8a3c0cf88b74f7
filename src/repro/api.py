"""The stable public API of the FPRaker reproduction.

One facade, three front ends: the functions here are the supported
entry points for Python callers, the ``repro`` CLI routes through the
same machinery, and a ``repro serve`` daemon exposes the identical
surface over HTTP (:func:`connect` returns a client whose ``simulate``
and ``sweep`` mirror the functions below argument-for-argument).  The
contract underneath is shared: every request -- local or remote -- is
normalized to a :class:`SimRequest` and a canonical key, so the same
``(model, config, progress, seed)`` tuple yields byte-identical results
on every path.

Typical use::

    import repro.api as api

    result = api.simulate("NCF")                      # one simulation
    batch = api.sweep([{"model": m} for m in ("NCF", "SNLI")])
    remote = api.connect("http://127.0.0.1:8177")     # repro serve
    remote.simulate("NCF")                            # same answer

Everything exported here is covered by the wire-schema versioning rules
in ``docs/SERVICE.md``, and ``__all__`` names exactly the entries of
its Public API table (``tests/docs/test_facade.py`` checks both lists).
"""

from __future__ import annotations

from repro.core.config import AcceleratorConfig
from repro.harness.runner import (
    SessionConfig,
    SessionStats,
    SimRequest,
    SimulationSession,
    WireFormatError,
)
from repro.service.client import (
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.service.client import connect as _connect

__all__ = [
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceTimeoutError",
    "SessionConfig",
    "SessionStats",
    "SimRequest",
    "SimulationSession",
    "WireFormatError",
    "connect",
    "scaleout",
    "session",
    "simulate",
    "sweep",
]


def session(
    config: SessionConfig | None = None, **knobs
) -> SimulationSession:
    """Open a memoizing simulation session.

    Pass a ready :class:`SessionConfig`, or the config's fields as
    keywords (they build one) -- ``api.session(jobs=4)`` is
    ``SimulationSession(config=SessionConfig(jobs=4))``.

    Args:
        config: a ready session configuration.
        **knobs: :class:`SessionConfig` fields, when ``config`` is None.

    Returns:
        A fresh :class:`SimulationSession`.

    Raises:
        TypeError: when both ``config`` and field keywords are given.
    """
    if config is not None:
        if knobs:
            raise TypeError(
                "pass either config= or SessionConfig field keywords, "
                "not both: got config= and " + ", ".join(sorted(knobs))
            )
        return SimulationSession(config=config)
    return SimulationSession(config=SessionConfig(**knobs))


def _resolve_session(
    session_obj: SimulationSession | None,
    config: SessionConfig | None,
) -> SimulationSession:
    """The session an API call runs under (private one by default)."""
    if session_obj is not None:
        if config is not None:
            raise TypeError("pass either session= or session_config=, not both")
        return session_obj
    return SimulationSession(config=config if config is not None else None)


def simulate(
    model: str,
    config: AcceleratorConfig | None = None,
    progress: float = 0.5,
    seed: int = 0,
    acc_profile: dict[str, int] | None = None,
    phases: tuple[str, ...] | None = None,
    *,
    session: SimulationSession | None = None,
    session_config: SessionConfig | None = None,
):
    """Simulate (or fetch) one model under one accelerator config.

    Args:
        model: Table-I model name.
        config: accelerator configuration (None = the paper's FPRaker
            config; use :func:`repro.core.config.baseline_paper_config`
            et al. for the comparison points).
        progress: training progress in [0, 1].
        seed: workload RNG seed.
        acc_profile: optional per-layer accumulator fractional widths.
        phases: training phases to include (None = all three).
        session: reuse an existing session's memo/cache.
        session_config: configuration for the private session opened
            when ``session`` is not given.

    Returns:
        The (possibly cached) :class:`repro.core.accelerator.WorkloadResult`.
    """
    runner = _resolve_session(session, session_config)
    return runner.simulate(model, config, progress, seed, acc_profile, phases)


def sweep(
    requests,
    *,
    session: SimulationSession | None = None,
    session_config: SessionConfig | None = None,
) -> list:
    """Run a batch of simulation requests through one session.

    The in-process twin of the daemon's ``/sweep`` endpoint: requests
    are deduplicated by canonical key, prefetched together (fanning out
    over worker processes when the session's ``jobs`` allows), and
    returned in input order.

    Args:
        requests: iterable of :class:`SimRequest`s, wire-form dicts
            (see :meth:`SimRequest.from_dict`), or bare model names.
        session: reuse an existing session's memo/cache.
        session_config: configuration for the private session opened
            when ``session`` is not given.

    Returns:
        Results in request order (duplicates share one simulation).
    """
    resolved = []
    for entry in requests:
        if isinstance(entry, SimRequest):
            resolved.append(entry)
        elif isinstance(entry, str):
            resolved.append(SimRequest.make(entry))
        else:
            resolved.append(SimRequest.from_dict(entry))
    runner = _resolve_session(session, session_config)
    runner.prefetch(resolved)
    return [runner.resolve(request) for request in resolved]


def scaleout(
    model: str,
    nodes: int,
    partition: str = "data",
    config: AcceleratorConfig | None = None,
    progress: float = 0.5,
    seed: int = 0,
    *,
    session: SimulationSession | None = None,
    session_config: SessionConfig | None = None,
):
    """Simulate a multi-node scale-out run.

    Args:
        model: Table-I model name.
        nodes: compute-node count (>= 1).
        partition: ``"data"``, ``"model"`` or ``"pipeline"``.
        config: per-node accelerator config (None = paper FPRaker).
        progress: training progress in [0, 1].
        seed: workload RNG seed.
        session: reuse an existing session's memo/cache.
        session_config: configuration for the private session opened
            when ``session`` is not given.

    Returns:
        A :class:`repro.scale.ScaleOutResult` for ``nodes > 1``; the
        plain single-node result at ``nodes == 1`` (shared cache key
        with :func:`simulate`).
    """
    runner = _resolve_session(session, session_config)
    return runner.scaleout(model, nodes, partition, config, progress, seed)


def connect(url: str, timeout: float = 600.0) -> ServiceClient:
    """Open a client against a running ``repro serve`` daemon.

    Args:
        url: the daemon's root URL (``http://host:port``).
        timeout: per-request socket timeout in seconds.

    Returns:
        A health-checked :class:`ServiceClient`.
    """
    return _connect(url, timeout=timeout)
