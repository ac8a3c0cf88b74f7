"""Content-addressed reuse of built workloads across configurations.

Sweeps like Fig 19 (four row-geometries plus the baseline per model) or
Fig 11 (four FPRaker variants plus the baseline) simulate the *same*
workloads under many accelerator configurations, yet the seed harness
rebuilt every tensor for every ``(model, config)`` pair.  Workload
construction is a pure function of ``(model, progress, seed, phases,
sample_size, acc_profile)`` -- deliberately **config-independent** -- so
this module keys built workloads on exactly that tuple:

* an **in-memory LRU** hands the same :class:`PhaseWorkload` objects to
  every configuration of a sweep (which also lets per-workload memos,
  e.g. the base-delta compression ratio, pay off across configs);
* an optional **on-disk store** (one ``.npz`` of stacked value arrays
  per key) lets worker processes and repeated CLI invocations share the
  generated tensors instead of re-running the Gibbs sampler.  The disk
  key drops ``acc_profile``: accumulator-width overrides change
  per-layer metadata, never the tensors.

Cache hits are byte-identical to cold builds (the test suite pins
this): the arrays round-trip float64 exactly, and the cheap geometry
fields are rebuilt deterministically from the zoo.

Treat cached workloads as immutable: mutating a returned workload's
arrays would leak into every later hit of the same key.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import numpy as np

WORKLOAD_CACHE_VERSION = 1


def workload_key(
    model: str,
    progress: float,
    phases: tuple[str, ...],
    sample_size: int,
    seed: int,
    acc_profile: dict[str, int] | None,
) -> str:
    """Canonical content key of one workload build.

    Args:
        model: Table-I model name.
        progress: training progress in [0, 1].
        phases: training phases built.
        sample_size: values sampled per tensor.
        seed: workload RNG seed.
        acc_profile: optional per-layer accumulator widths.

    Returns:
        A stable JSON string; equal inputs give equal keys.
    """
    spec = {
        "version": WORKLOAD_CACHE_VERSION,
        "model": model,
        "progress": float(progress),
        "phases": list(phases),
        "sample_size": int(sample_size),
        "seed": int(seed),
        "acc_profile": sorted(acc_profile.items()) if acc_profile else None,
    }
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def tensor_key(
    model: str,
    progress: float,
    phases: tuple[str, ...],
    sample_size: int,
    seed: int,
) -> str:
    """Disk key of a build's value arrays (acc_profile-independent)."""
    return workload_key(model, progress, phases, sample_size, seed, None)


@dataclass
class WorkloadCacheStats:
    """Work accounting of one cache.

    Attributes:
        hits: builds answered from the in-memory LRU.
        disk_hits: builds whose tensors were loaded from disk.
        builds: cold builds that ran the full tensor generation.
    """

    hits: int = 0
    disk_hits: int = 0
    builds: int = 0


class WorkloadCache:
    """LRU of built workloads plus an optional on-disk tensor store.

    The default capacity is 2 builds.  A ``repro run`` pool worker lives
    for the whole run and takes keys in plan order, which keeps the
    keys that share a build next to each other, so 2 entries catch that
    reuse.  At 8, each long-lived worker kept up to 8 builds, and a cold
    ``run all --jobs 2`` peaked at 156 MB in one process, against 113 MB
    at 2 (medians of 3 runs on a 2-core host).  Reuse across
    experiments is the ``.npz`` store's job.

    Args:
        capacity: in-memory entries (one entry is one model build,
            a few megabytes of value samples).
        disk_dir: directory for ``.npz`` tensor persistence (None
            disables the disk layer).
    """

    def __init__(
        self, capacity: int = 2, disk_dir: str | os.PathLike | None = None
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.stats = WorkloadCacheStats()
        self._memo: OrderedDict[str, list] = OrderedDict()

    # -- in-memory layer ---------------------------------------------------

    def get(self, key: str) -> list | None:
        """The cached workload list for ``key``, or None on a miss."""
        entry = self._memo.get(key)
        if entry is None:
            return None
        self._memo.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: str, workloads: list) -> None:
        """Insert a build, evicting the least recently used overflow."""
        self._memo[key] = workloads
        self._memo.move_to_end(key)
        while len(self._memo) > self.capacity:
            self._memo.popitem(last=False)

    # -- disk layer --------------------------------------------------------

    def path_for(self, key: str) -> Path | None:
        """File path holding a tensor key's arrays (None: disk off)."""
        if self.disk_dir is None:
            return None
        digest = sha256(key.encode()).hexdigest()[:32]
        return self.disk_dir / f"workload-{digest}.npz"

    def load_tensors(self, key: str) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """Fetch a build's per-phase ``(values_a, values_b)`` arrays.

        Args:
            key: the :func:`tensor_key` of the build.

        Returns:
            One array pair per phase in build order, or None when the
            entry is absent, unreadable, version-skewed, or keyed
            differently (a hash collision).
        """
        path = self.path_for(key)
        if path is None:
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                if str(data["key"]) != key:
                    return None
                stack_a = np.asarray(data["values_a"], dtype=np.float64)
                stack_b = np.asarray(data["values_b"], dtype=np.float64)
        except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
            # BadZipFile/EOFError: a truncated or garbage archive (e.g.
            # a crashed writer beat the atomic replace, or disk rot).
            return None
        if stack_a.shape != stack_b.shape or stack_a.ndim != 2:
            return None
        self.stats.disk_hits += 1
        return list(zip(stack_a, stack_b))

    def store_tensors(self, key: str, workloads: list) -> None:
        """Persist a build's value arrays (atomic replace)."""
        path = self.path_for(key)
        if path is None:
            return
        self.disk_dir.mkdir(parents=True, exist_ok=True)
        stack_a = np.stack([w.values_a for w in workloads])
        stack_b = np.stack([w.values_b for w in workloads])
        fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    key=np.array(key),
                    values_a=stack_a,
                    values_b=stack_b,
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# Process-global default: memory-only reuse for any caller that does
# not manage its own cache (figure runs without a session, analysis
# helpers, a worker process without a disk directory).
DEFAULT_WORKLOAD_CACHE = WorkloadCache()

# Per-process caches for disk directories handed to worker processes
# (one instance per directory, so a pool worker reuses its memory layer
# across the tasks it executes).
_DIR_CACHES: dict[str, WorkloadCache] = {}


def cache_for(
    spec: "WorkloadCache | str | os.PathLike | None",
) -> WorkloadCache | None:
    """Resolve a cache spec: instance, disk directory, or None.

    Args:
        spec: a ready :class:`WorkloadCache`, a disk directory (one
            process-wide instance per directory), or None for "no
            caching".

    Returns:
        The cache to use, or None.
    """
    if spec is None or isinstance(spec, WorkloadCache):
        return spec
    root = str(spec)
    cache = _DIR_CACHES.get(root)
    if cache is None:
        cache = WorkloadCache(disk_dir=root)
        _DIR_CACHES[root] = cache
    return cache
