"""On-disk persistence of simulation results.

One file per canonical simulation key, holding the JSON round-trip of
a :class:`repro.core.accelerator.WorkloadResult` or a
:class:`repro.scale.ScaleOutResult` (via its ``to_dict``; a ``kind``
tag picks the class on the way back).  Python's ``json`` emits
shortest-round-trip float literals, so a loaded result is bit-identical
to the simulated one -- warm ``run`` invocations reproduce cold ones
exactly.

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

from repro.core.accelerator import WorkloadResult

# Bump when the result schema or simulator semantics change; stale
# entries from older versions then read as misses instead of poisoning
# warm runs.
# v2: canonical keys carry the memory engine and counters may embed a
# MemoryTrafficResult (hierarchy runs).
# v3: canonical keys carry nodes/partition and entries carry a "kind"
# tag (scale-out results persist alongside single-node ones).
CACHE_VERSION = 3


class ResultCache:
    """Directory-backed store of :class:`WorkloadResult` by canonical key.

    Args:
        root: cache directory (created on first store).
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """File path holding the given key's result."""
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.root / f"{digest}.json"

    def load(self, key: str) -> WorkloadResult | None:
        """Fetch a stored result, or None on any kind of miss.

        Args:
            key: canonical simulation key.

        Returns:
            The deserialized result, or None when the entry is absent,
            unreadable, from another cache version, or keyed differently
            (a hash collision).
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
            if payload.get("kind") == "scaleout":
                from repro.scale.scaleout import ScaleOutResult

                return ScaleOutResult.from_dict(payload["result"])
            return WorkloadResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def store(self, key: str, result: WorkloadResult) -> Path:
        """Persist a result under its key (atomic replace).

        Args:
            key: canonical simulation key.
            result: the simulation outcome to store.

        Returns:
            The path written.
        """
        path = self.path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_VERSION,
            "key": key,
            "kind": (
                "workload" if isinstance(result, WorkloadResult) else "scaleout"
            ),
            "result": result.to_dict(),
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
