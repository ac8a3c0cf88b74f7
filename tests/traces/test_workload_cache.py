"""Workload-reuse layer: cache hits must be byte-identical to cold
builds, across the in-memory LRU, the on-disk tensor store, and the
cached Gibbs-lambda inverse."""

import numpy as np
import pytest

from repro.traces.synthetic import _gibbs_inverse, _gibbs_lambda_bisect
from repro.traces.workload_cache import (
    WORKLOAD_CACHE_VERSION,
    WorkloadCache,
    cache_for,
    tensor_key,
    workload_key,
)
from repro.traces.workloads import build_workloads


def _assert_same_build(got, want):
    """Field-exact equality of two workload lists (arrays byte-equal)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.model == w.model and g.layer == w.layer and g.phase == w.phase
        assert g.macs == w.macs and g.reduction == w.reduction
        assert g.acc_frac_bits == w.acc_frac_bits
        assert g.input_bytes == w.input_bytes
        assert g.output_bytes == w.output_bytes
        assert g.streams == w.streams
        assert g.values_a.tobytes() == w.values_a.tobytes()
        assert g.values_b.tobytes() == w.values_b.tobytes()


class TestWorkloadKey:
    def test_equal_inputs_equal_keys(self):
        a = workload_key("NCF", 0.5, ("AxW",), 8192, 0, None)
        b = workload_key("NCF", 0.5, ("AxW",), 8192, 0, None)
        assert a == b

    def test_config_independence_fields_only(self):
        """The key covers exactly the build inputs -- changing any one
        changes the key."""
        base = workload_key("NCF", 0.5, ("AxW",), 8192, 0, None)
        assert workload_key("Bert", 0.5, ("AxW",), 8192, 0, None) != base
        assert workload_key("NCF", 0.6, ("AxW",), 8192, 0, None) != base
        assert workload_key("NCF", 0.5, ("GxW",), 8192, 0, None) != base
        assert workload_key("NCF", 0.5, ("AxW",), 4096, 0, None) != base
        assert workload_key("NCF", 0.5, ("AxW",), 8192, 1, None) != base
        assert (
            workload_key("NCF", 0.5, ("AxW",), 8192, 0, {"fc1": 9}) != base
        )

    def test_tensor_key_drops_acc_profile(self):
        assert tensor_key("NCF", 0.5, ("AxW",), 8192, 0) == workload_key(
            "NCF", 0.5, ("AxW",), 8192, 0, None
        )


class TestMemoryCache:
    def test_hit_returns_same_objects(self):
        cache = WorkloadCache()
        first = build_workloads("NCF", cache=cache)
        second = build_workloads("NCF", cache=cache)
        assert all(a is b for a, b in zip(first, second))
        assert cache.stats.hits == 1
        assert cache.stats.builds == 1

    def test_hit_byte_identical_to_cold_build(self):
        cache = WorkloadCache()
        build_workloads("NCF", cache=cache)
        hit = build_workloads("NCF", cache=cache)
        cold = build_workloads("NCF", cache=None)
        _assert_same_build(hit, cold)

    def test_acc_profile_gets_distinct_entry(self):
        cache = WorkloadCache()
        plain = build_workloads("NCF", cache=cache)
        profiled = build_workloads(
            "NCF", acc_profile={plain[0].layer: 9}, cache=cache
        )
        assert profiled[0].acc_frac_bits == 9
        assert plain[0].acc_frac_bits is None
        # Tensors are identical; only the metadata differs.
        assert (
            profiled[0].values_a.tobytes() == plain[0].values_a.tobytes()
        )

    def test_lru_eviction(self):
        cache = WorkloadCache(capacity=1)
        build_workloads("NCF", cache=cache)
        build_workloads("NCF", progress=0.6, cache=cache)
        build_workloads("NCF", cache=cache)
        assert cache.stats.builds == 3  # first entry was evicted
        assert cache.stats.hits == 0

    def test_returned_list_is_a_copy(self):
        cache = WorkloadCache()
        first = build_workloads("NCF", cache=cache)
        first.clear()
        assert len(build_workloads("NCF", cache=cache)) > 0


class TestDiskCache:
    def test_round_trip_byte_identical(self, tmp_path):
        writer = WorkloadCache(disk_dir=tmp_path)
        cold = build_workloads("NCF", cache=writer)
        # A fresh cache instance (fresh process, conceptually) must
        # reproduce the cold build byte for byte from disk alone.
        reader = WorkloadCache(disk_dir=tmp_path)
        warm = build_workloads("NCF", cache=reader)
        _assert_same_build(warm, cold)
        assert reader.stats.disk_hits == 1
        assert reader.stats.builds == 0

    def test_acc_profile_shares_disk_tensors(self, tmp_path):
        writer = WorkloadCache(disk_dir=tmp_path)
        plain = build_workloads("NCF", cache=writer)
        reader = WorkloadCache(disk_dir=tmp_path)
        profiled = build_workloads(
            "NCF", acc_profile={plain[0].layer: 7}, cache=reader
        )
        assert reader.stats.disk_hits == 1
        assert profiled[0].acc_frac_bits == 7
        assert (
            profiled[0].values_a.tobytes() == plain[0].values_a.tobytes()
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        writer = WorkloadCache(disk_dir=tmp_path)
        build_workloads("NCF", cache=writer)
        for path in sorted(tmp_path.glob("workload-*.npz")):
            path.write_bytes(b"not an npz")
        reader = WorkloadCache(disk_dir=tmp_path)
        rebuilt = build_workloads("NCF", cache=reader)
        assert reader.stats.disk_hits == 0
        assert reader.stats.builds == 1
        _assert_same_build(rebuilt, build_workloads("NCF", cache=None))

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = WorkloadCache(disk_dir=tmp_path)
        key = tensor_key("NCF", 0.5, ("AxW", "GxW", "AxG"), 8192, 0)
        other = tensor_key("NCF", 0.25, ("AxW", "GxW", "AxG"), 8192, 0)
        workloads = build_workloads("NCF", cache=None)
        cache.store_tensors(key, workloads)
        # Simulate a hash collision: move the entry onto another key's
        # path.
        cache.path_for(key).rename(cache.path_for(other))
        assert cache.load_tensors(other) is None

    def test_version_in_key(self):
        assert f'"version":{WORKLOAD_CACHE_VERSION}' in workload_key(
            "NCF", 0.5, ("AxW",), 8192, 0, None
        )

    def test_cache_for_reuses_per_directory_instance(self, tmp_path):
        assert cache_for(tmp_path) is cache_for(str(tmp_path))
        assert cache_for(None) is None
        own = WorkloadCache()
        assert cache_for(own) is own


class TestVersionInvalidation:
    """Bumping WORKLOAD_CACHE_VERSION must orphan every old entry."""

    def test_memory_entries_invalidated(self, monkeypatch):
        cache = WorkloadCache()
        build_workloads("NCF", cache=cache)
        assert cache.stats.builds == 1
        monkeypatch.setattr(
            "repro.traces.workload_cache.WORKLOAD_CACHE_VERSION",
            WORKLOAD_CACHE_VERSION + 1,
        )
        build_workloads("NCF", cache=cache)
        # The new-version key misses both layers and rebuilds cold.
        assert cache.stats.builds == 2
        assert cache.stats.hits == 0

    def test_disk_entries_invalidated(self, tmp_path, monkeypatch):
        writer = WorkloadCache(disk_dir=tmp_path)
        build_workloads("NCF", cache=writer)
        assert any(tmp_path.glob("workload-*.npz"))
        monkeypatch.setattr(
            "repro.traces.workload_cache.WORKLOAD_CACHE_VERSION",
            WORKLOAD_CACHE_VERSION + 1,
        )
        reader = WorkloadCache(disk_dir=tmp_path)
        build_workloads("NCF", cache=reader)
        assert reader.stats.disk_hits == 0
        assert reader.stats.builds == 1

    def test_version_skewed_file_is_a_miss(self, tmp_path):
        """An entry written under another version misses by key content."""
        cache = WorkloadCache(disk_dir=tmp_path)
        current = tensor_key("NCF", 0.5, ("AxW",), 8192, 0)
        stale = current.replace(
            f'"version":{WORKLOAD_CACHE_VERSION}',
            f'"version":{WORKLOAD_CACHE_VERSION - 1}',
        )
        assert stale != current
        workloads = build_workloads("NCF", phases=("AxW",), cache=None)
        cache.store_tensors(stale, workloads)
        cache.path_for(stale).rename(cache.path_for(current))
        assert cache.load_tensors(current) is None


class TestCorruptEntries:
    def test_truncated_npz_is_a_miss(self, tmp_path):
        cache = WorkloadCache(disk_dir=tmp_path)
        key = tensor_key("NCF", 0.5, ("AxW",), 8192, 0)
        cache.store_tensors(key, build_workloads("NCF", phases=("AxW",), cache=None))
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.load_tensors(key) is None

    def test_missing_array_field_is_a_miss(self, tmp_path):
        cache = WorkloadCache(disk_dir=tmp_path)
        key = tensor_key("NCF", 0.5, ("AxW",), 8192, 0)
        np.savez(cache.path_for(key), key=np.array(key))
        assert cache.load_tensors(key) is None

    def test_shape_skewed_arrays_are_a_miss(self, tmp_path):
        cache = WorkloadCache(disk_dir=tmp_path)
        key = tensor_key("NCF", 0.5, ("AxW",), 8192, 0)
        np.savez(
            cache.path_for(key),
            key=np.array(key),
            values_a=np.zeros((3, 8)),
            values_b=np.zeros((2, 8)),
        )
        assert cache.load_tensors(key) is None

    def test_wrong_rank_is_a_miss(self, tmp_path):
        cache = WorkloadCache(disk_dir=tmp_path)
        key = tensor_key("NCF", 0.5, ("AxW",), 8192, 0)
        np.savez(
            cache.path_for(key),
            key=np.array(key),
            values_a=np.zeros(8),
            values_b=np.zeros(8),
        )
        assert cache.load_tensors(key) is None


class TestLRUOrder:
    """Eviction follows recency of *use*, not insertion."""

    def test_get_refreshes_recency(self):
        cache = WorkloadCache(capacity=2)
        cache.put("a", [1])
        cache.put("b", [2])
        cache.get("a")  # a becomes most recent
        cache.put("c", [3])  # evicts b, not a
        assert cache.get("a") == [1]
        assert cache.get("b") is None
        assert cache.get("c") == [3]

    def test_put_refreshes_recency(self):
        cache = WorkloadCache(capacity=2)
        cache.put("a", [1])
        cache.put("b", [2])
        cache.put("a", [10])  # refresh a by re-insert
        cache.put("c", [3])  # evicts b
        assert cache.get("a") == [10]
        assert cache.get("b") is None

    def test_eviction_is_fifo_without_touches(self):
        cache = WorkloadCache(capacity=3)
        for name in "abcd":
            cache.put(name, [name])
        assert cache.get("a") is None
        assert [cache.get(k) is not None for k in "bcd"] == [True] * 3

    def test_capacity_floor_is_one(self):
        cache = WorkloadCache(capacity=0)
        cache.put("a", [1])
        cache.put("b", [2])
        assert cache.get("a") is None
        assert cache.get("b") == [2]

    def test_build_access_refreshes_model_entry(self):
        cache = WorkloadCache(capacity=2)
        build_workloads("NCF", cache=cache)  # entry A
        build_workloads("NCF", progress=0.6, cache=cache)  # entry B
        build_workloads("NCF", cache=cache)  # hit refreshes A
        build_workloads("NCF", progress=0.7, cache=cache)  # evicts B
        before = cache.stats.builds
        build_workloads("NCF", cache=cache)  # still a hit
        assert cache.stats.builds == before
        build_workloads("NCF", progress=0.6, cache=cache)  # rebuilt
        assert cache.stats.builds == before + 1


class TestGibbsCache:
    def test_cached_inverse_matches_bisection(self):
        _gibbs_inverse.cache_clear()
        targets = np.linspace(0.9, 4.6, 23)
        for target in targets:
            clipped = float(np.clip(target, 1.05, 4.4))
            assert _gibbs_inverse(clipped)[0] == _gibbs_lambda_bisect(clipped)

    def test_repeated_targets_hit(self):
        _gibbs_inverse.cache_clear()
        _gibbs_inverse(2.5)
        before = _gibbs_inverse.cache_info().hits
        _gibbs_inverse(2.5)
        _gibbs_inverse(2.5)
        assert _gibbs_inverse.cache_info().hits == before + 2
        assert _gibbs_inverse.cache_info().misses == 1

    def test_cached_weights_are_the_bisection_weights(self):
        _gibbs_inverse.cache_clear()
        lam, weights = _gibbs_inverse(3.0)
        from repro.traces.synthetic import _MAN_TERMS

        expected = np.exp(-_gibbs_lambda_bisect(3.0) * _MAN_TERMS)
        expected /= expected.sum()
        assert np.array(weights).tobytes() == expected.tobytes()
