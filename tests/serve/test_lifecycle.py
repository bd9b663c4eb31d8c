"""Tests for cache lifecycle: LRU bounds, eviction arithmetic, sizing.

The fast tests drive the cheap ``matcher`` family (a miss allocates
an empty :class:`~repro.core.matching.Matcher` over one tiny shared
network — no matching, placement or routing) and the white-box
``_put`` path with synthetic numpy payloads, so a 100-access mixed
stream runs in well under a second; one engine-level test then checks
that bounded caches change nothing but the wall clock.
"""

import numpy as np
import pytest

from repro.circuits import spla_like
from repro.core import FlowConfig
from repro.library import CORELIB018
from repro.network import decompose
from repro.serve import CacheBounds, Job, ServeEngine, SessionCaches
from repro.serve.caches import approx_nbytes


@pytest.fixture(scope="module")
def base():
    """The tiny base network every matcher entry is built over."""
    return decompose(spla_like(0.01))


def _mixed_keys(n):
    """A 100-job-style mixed stream of matcher keys.

    Cycles 30 keys with a skewed revisit pattern, so the stream has
    genuine hits, misses and re-misses after eviction.
    """
    keys = []
    for i in range(n):
        keys.append(f"bench:n{i % 10}@0.01/{12 + i % 3}")
        if i % 4 == 0:  # revisit the hottest key
            keys.append("bench:n0@0.01/12")
    return keys


class TestEntryBounds:
    def test_100_job_mixed_stream_respects_entry_bound(self, base):
        bounds = CacheBounds(max_entries=8)
        caches = SessionCaches(CORELIB018, bounds=bounds)
        keys = _mixed_keys(100)
        for key in keys:
            caches.matcher(key, base)
            assert caches.counters()["matcher_entries"] <= 8
        counters = caches.counters()
        accesses = len(keys)
        # hits + misses == accesses; inserts == misses; whatever was
        # inserted is either still resident or was evicted.
        assert counters["matcher_hits"] + \
            counters["matcher_misses"] == accesses
        assert counters["matcher_misses"] == \
            counters["matcher_entries"] + \
            counters["matcher_evictions"]
        assert counters["matcher_evictions"] > 0
        assert counters["evictions"] == counters["matcher_evictions"]

    def test_unbounded_never_evicts(self, base):
        caches = SessionCaches(CORELIB018)
        for key in _mixed_keys(100):
            caches.matcher(key, base)
        assert caches.counters()["evictions"] == 0

    def test_lru_evicts_least_recently_used(self, base):
        caches = SessionCaches(CORELIB018, bounds=CacheBounds(max_entries=2))
        caches.matcher("bench:a@1", base)
        caches.matcher("bench:b@1", base)
        caches.matcher("bench:a@1", base)     # refresh a
        caches.matcher("bench:c@1", base)     # must evict b, not a
        assert set(caches._families["matcher"]) == {"bench:a@1",
                                                    "bench:c@1"}


class TestByteBounds:
    def test_byte_bound_evicts_globally_oldest(self):
        bounds = CacheBounds(max_bytes=64 * 1024)
        caches = SessionCaches(CORELIB018, bounds=bounds)
        for i in range(20):
            caches._put("layout", f"k{i}", np.zeros(4096))  # ~32 KiB each
            assert caches.cache_bytes() <= bounds.max_bytes
        counters = caches.counters()
        assert counters["layout_evictions"] == 20 - \
            counters["layout_entries"]
        # The survivors are exactly the most recent insertions.
        survivors = set(caches._families["layout"])
        assert survivors == {f"k{19 - i}" for i in range(len(survivors))}
        assert survivors

    def test_byte_bound_spans_families(self):
        caches = SessionCaches(CORELIB018,
                               bounds=CacheBounds(max_bytes=64 * 1024))
        caches._put("layout", "old", np.zeros(4096))
        caches._put("matcher", "new", np.zeros(4096))
        caches._put("netlist", "newer", np.zeros(4096))
        # 96 KiB total: the globally oldest entry goes first.
        assert "old" not in caches._families["layout"]
        assert caches.counters()["layout_evictions"] == 1

    def test_counters_report_cache_bytes(self):
        caches = SessionCaches(CORELIB018)
        assert caches.counters()["cache_bytes"] == 0
        caches._put("layout", "k", np.zeros(1024))
        assert caches.counters()["cache_bytes"] >= 8192

    def test_stats_kinds(self):
        caches = SessionCaches(CORELIB018,
                               bounds=CacheBounds(max_entries=1))
        caches._put("layout", "a", np.zeros(8))
        caches._put("layout", "b", np.zeros(8))
        stats = caches.stats()
        assert stats["serve.evictions"] == 1
        assert stats.kind("serve.evictions") == "work"
        assert stats.kind("serve.cache_bytes") == "gauge"
        assert stats["serve.cache_bytes"] > 0


class TestApproxNbytes:
    def test_arrays_dominate(self):
        small = approx_nbytes({"x": 1})
        big = approx_nbytes({"x": np.zeros(100_000)})
        assert big - small >= 800_000

    def test_shared_objects_counted_once_per_entry(self):
        arr = np.zeros(10_000)
        assert approx_nbytes([arr, arr]) < 2 * approx_nbytes([arr])

    def test_library_is_opaque(self):
        assert approx_nbytes(CORELIB018) < 1024

    def test_deterministic(self):
        value = {"a": [np.arange(64), (1, 2.5, "s")], "b": {3, 4}}
        assert approx_nbytes(value) == approx_nbytes(value)


class TestEngineWithBounds:
    #: Three tiny calibrated jobs over two dies.
    JOBS = [Job(id="a", cmd="ksweep", source="spla@0.01", rows=12,
                k=(0.0,)),
            Job(id="b", cmd="ksweep", source="spla@0.01", rows=13,
                k=(0.0,)),
            Job(id="c", cmd="ksweep", source="spla@0.01", rows=12,
                k=(0.005,))]

    @pytest.fixture(scope="class")
    def unbounded(self):
        return ServeEngine(FlowConfig(library=CORELIB018)).run(self.JOBS)

    def test_eviction_changes_nothing_but_work(self, unbounded):
        engine = ServeEngine(FlowConfig(library=CORELIB018),
                             bounds=CacheBounds(max_entries=1))
        results = engine.run(self.JOBS)
        assert [r.to_json() for r in results] == \
            [r.to_json() for r in unbounded]
        counters = engine.cache_counters()
        assert counters["evictions"] > 0
        for family in ("netlist", "layout", "matcher"):
            assert counters[f"{family}_entries"] <= 1
        summary = engine.summary()
        assert summary["cache"]["evictions"] == counters["evictions"]

    def test_warmed_matcher_is_resized_and_evicted(self, unbounded):
        """A matcher enters the cache empty and fills its memos during
        the job; a byte bound below one warmed matcher must evict it
        after that job, not keep it at its insertion-time size."""
        caches = SessionCaches(CORELIB018,
                               bounds=CacheBounds(max_bytes=1 << 20))
        engine = ServeEngine(FlowConfig(library=CORELIB018), caches=caches)
        results = engine.run(self.JOBS[:1])
        assert [r.to_json() for r in results] == \
            [r.to_json() for r in unbounded[:1]]
        counters = caches.counters()
        assert counters["matcher_misses"] == 1
        assert counters["matcher_evictions"] == 1
        assert counters["matcher_entries"] == 0
        assert caches.cache_bytes() <= 1 << 20

