"""Inter-process locking: ShardLock and ShardedResultCache.

The serving acceptance criteria this file pins down:

* :class:`repro.engine.ShardLock` really excludes across *processes* —
  N processes doing read-modify-write under the lock lose no update.
* :class:`repro.engine.ShardedResultCache` distributes entries across
  shards, answers round-trips, and ``get_or_compute`` holds the shard's
  exclusive flock across re-check -> compute -> store, so two processes
  sharing one cache directory compute every cold key **exactly once**
  and corrupt nothing.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.engine import ShardLock, ShardedResultCache
from repro.engine.locks import HAVE_FLOCK
from repro.engine.sharded import DEFAULT_SHARDS

pytestmark = pytest.mark.skipif(
    not HAVE_FLOCK, reason="platform has no fcntl.flock"
)


# ---------------------------------------------------------------------------
# ShardLock


class TestShardLock:
    def test_exclusive_creates_lock_file_and_counts(self, tmp_path):
        lock = ShardLock(tmp_path / "a.lock")
        with lock.exclusive():
            assert lock.path.exists()
        with lock.shared():
            pass
        assert lock.exclusive_acquisitions == 1
        assert lock.shared_acquisitions == 1
        # The lock file is never deleted: unlinking would split the lock
        # domain between holders of the old and new inode.
        assert lock.path.exists()

    def test_nested_directories_created(self, tmp_path):
        lock = ShardLock(tmp_path / "deep" / "er" / "x.lock")
        with lock.exclusive():
            pass
        assert lock.path.exists()


def _locked_increment(args: tuple[str, str, int, float]) -> int:
    """Read-modify-write a counter file under the lock (child process)."""
    lock_path, counter_path, rounds, hold_s = args
    lock = ShardLock(lock_path)
    counter = Path(counter_path)
    for _ in range(rounds):
        with lock.exclusive():
            value = int(counter.read_text()) if counter.exists() else 0
            # Hold the lock across the racy window; without flock the
            # sleep makes lost updates near-certain.
            time.sleep(hold_s)
            counter.write_text(str(value + 1))
    return rounds


class TestShardLockCrossProcess:
    def test_no_lost_updates_across_processes(self, tmp_path):
        lock_path = str(tmp_path / "counter.lock")
        counter_path = str(tmp_path / "counter.txt")
        rounds, procs = 4, 3
        with ProcessPoolExecutor(max_workers=procs) as pool:
            results = list(
                pool.map(
                    _locked_increment,
                    [(lock_path, counter_path, rounds, 0.01)] * procs,
                )
            )
        assert results == [rounds] * procs
        assert int(Path(counter_path).read_text()) == rounds * procs


# ---------------------------------------------------------------------------
# ShardedResultCache


class TestShardedResultCache:
    def test_round_trip_and_sharding(self, tmp_path):
        cache = ShardedResultCache(tmp_path, n_shards=4)
        fields = [{"kind": "t", "i": i} for i in range(16)]
        for i, f in enumerate(fields):
            cache.put(f, {"value": i})
        assert len(cache) == 16
        for i, f in enumerate(fields):
            assert cache.get(f) == {"value": i}
        shards_used = {cache.shard_index(f) for f in fields}
        assert len(shards_used) > 1  # entries actually spread out
        assert all(0 <= s < 4 for s in shards_used)

    def test_get_or_compute_single_process(self, tmp_path):
        cache = ShardedResultCache(tmp_path, n_shards=2)
        calls = []

        def compute() -> dict:
            calls.append(1)
            return {"answer": 42}

        record, was_hit = cache.get_or_compute({"k": 1}, compute)
        assert (record, was_hit) == ({"answer": 42}, False)
        record, was_hit = cache.get_or_compute({"k": 1}, compute)
        assert (record, was_hit) == ({"answer": 42}, True)
        assert len(calls) == 1

    def test_default_shards_and_clear(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        assert cache.n_shards == DEFAULT_SHARDS
        cache.put({"k": "x"}, {"v": 1})
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.corrupt_count == 0


def _hammer_shared_cache(args: tuple[str, int]) -> dict:
    """One process's pass over the shared keys (child process).

    Computes through ``get_or_compute`` with a deliberately slow compute
    so both processes race on cold keys; reports how many it computed
    fresh and what it read, so the parent can assert exactly-once
    computation and agreement.
    """
    root, n_keys = args
    cache = ShardedResultCache(root, n_shards=4)
    computed = 0
    values = []
    for i in range(n_keys):

        def compute(i=i):
            time.sleep(0.02)  # widen the race window
            return {"value": i * i}

        record, was_hit = cache.get_or_compute({"kind": "race", "i": i}, compute)
        computed += 0 if was_hit else 1
        values.append(record["value"])
    return {"computed": computed, "values": values}


class TestSharedCacheDirectory:
    def test_two_processes_no_duplicate_no_corrupt(self, tmp_path):
        """The flock acceptance criterion: one cache dir, two processes."""
        n_keys, procs = 8, 2
        with ProcessPoolExecutor(max_workers=procs) as pool:
            results = list(
                pool.map(_hammer_shared_cache, [(str(tmp_path), n_keys)] * procs)
            )
        # Every cold key computed exactly once across the fleet.
        assert sum(r["computed"] for r in results) == n_keys
        # Both processes read identical values.
        expected = [i * i for i in range(n_keys)]
        assert all(r["values"] == expected for r in results)
        # No corrupt or duplicate entries on disk.
        cache = ShardedResultCache(tmp_path, n_shards=4)
        assert cache.corrupt_count == 0
        assert len(cache) == n_keys
        assert not list(Path(tmp_path).rglob("*.corrupt"))
        for i in range(n_keys):
            assert cache.get({"kind": "race", "i": i}) == {"value": i * i}
