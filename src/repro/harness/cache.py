"""On-disk persistence of simulation results and experiment tables.

One file per key, holding the JSON round-trip of a
:class:`repro.core.accelerator.WorkloadResult`, a
:class:`repro.scale.ScaleOutResult` or a tuple of
:class:`repro.harness.report.Table` (via ``to_dict``; a ``kind`` tag
picks the class on the way back, and :mod:`repro.codec` reads the
simulation results).  Python's ``json`` emits
shortest-round-trip float literals, so a loaded result is bit-identical
to the computed one -- warm ``run`` invocations reproduce cold ones
exactly.  Simulations are keyed by
:func:`repro.harness.runner.canonical_key`; the tables of experiments
that never reach a simulation session by :func:`table_key`, in a
``tables/`` subdirectory of ``repro run --cache DIR``.

The store is deliberately simple: content-addressed file names (SHA-256
of the key), atomic writes via a temp file, and unreadable or stale
entries treated as misses.  Concurrent readers/writers of the same
directory are safe because a key's content is a pure function of the
key.  It is the one persistent result format: ``repro run --cache DIR``
and ``repro serve --store DIR`` (through
:class:`repro.service.store.ResultStore`) share the same directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro import codec
from repro.core.accelerator import WorkloadResult
from repro.harness.report import Table

# Bump when the result schema or simulator semantics change, or when a
# sessionless experiment's output changes for the same arguments; stale
# entries from older versions then read as misses instead of poisoning
# warm runs.
# v2: canonical keys carry the memory engine and counters may embed a
# MemoryTrafficResult (hierarchy runs).
# v3: canonical keys carry nodes/partition and entries carry a "kind"
# tag (scale-out results persist alongside single-node ones).
CACHE_VERSION = 3


def table_key(experiment: str, arguments: dict) -> str:
    """Cache key of one sessionless experiment's tables.

    Args:
        experiment: the experiment id (``EXPERIMENTS`` name).
        arguments: every argument of the call, defaults included (an
            ``inspect.BoundArguments.arguments`` after
            ``apply_defaults()``), so changing a default changes the key.

    Returns:
        A sorted-JSON string.

    Raises:
        TypeError: an argument JSON cannot serialize.
    """
    spec = {"experiment": experiment, "arguments": arguments}
    return json.dumps(spec, sort_keys=True)


def encode_tagged(result) -> tuple[str, object]:
    """The ``kind`` tag and JSON form of a cacheable result.

    The one table of result kinds: cache entries and the service's
    response envelopes (:mod:`repro.service.wire`) both use it.

    Raises:
        TypeError: ``result`` is none of the cacheable types.
    """
    if isinstance(result, WorkloadResult):
        return "workload", result.to_dict()
    if (
        isinstance(result, tuple)
        and result
        and all(isinstance(table, Table) for table in result)
    ):
        return "tables", [table.to_dict() for table in result]
    from repro.scale.scaleout import ScaleOutResult

    if isinstance(result, ScaleOutResult):
        return "scaleout", result.to_dict()
    raise TypeError(f"cannot cache a {type(result).__name__}")


def decode_tagged(kind, data):
    """Inverse of :func:`encode_tagged` (``ValueError`` on an unknown
    kind; a malformed payload raises ``KeyError``, ``TypeError`` or
    ``ValueError``)."""
    if kind == "workload":
        return codec.from_dict(WorkloadResult, data, "result")
    if kind == "tables":
        if not isinstance(data, list) or not data:
            raise ValueError("tables entry is not a non-empty list")
        return tuple(Table.from_dict(table) for table in data)
    if kind == "scaleout":
        from repro.scale.scaleout import ScaleOutResult

        return codec.from_dict(ScaleOutResult, data, "result")
    raise ValueError(f"unknown result kind {kind!r}")


class ResultCache:
    """Directory-backed store of results by key.

    Holds simulation results (:class:`WorkloadResult`,
    :class:`repro.scale.ScaleOutResult`) and experiment tables (a
    non-empty tuple of :class:`Table`).

    Args:
        root: cache directory (created on first store).
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """File path holding the given key's result."""
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.root / f"{digest}.json"

    def load(self, key: str):
        """Fetch a stored result, or None on any kind of miss.

        Args:
            key: canonical simulation key or :func:`table_key`.

        Returns:
            The deserialized result, or None when the entry is absent,
            unreadable, malformed, from another cache version, or keyed
            differently (a hash collision).
        """
        path = self.path_for(key)
        try:
            with path.open() as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_VERSION
            or payload.get("key") != key
        ):
            return None
        try:
            return decode_tagged(payload.get("kind"), payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def store(self, key: str, result) -> Path:
        """Persist a result under its key (atomic replace).

        Args:
            key: canonical simulation key or :func:`table_key`.
            result: a :class:`WorkloadResult`, a
                :class:`repro.scale.ScaleOutResult`, or a non-empty
                tuple of :class:`Table`.

        Returns:
            The path written.

        Raises:
            TypeError: ``result`` is none of the cacheable types.
        """
        kind, data = encode_tagged(result)
        path = self.path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_VERSION,
            "key": key,
            "kind": kind,
            "result": data,
        }
        text = json.dumps(payload)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path
