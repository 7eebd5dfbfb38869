"""A sharded, flock-guarded view over :class:`~repro.engine.cache.ResultCache`.

One flat cache directory works for a single experiment run; a long-running
tuning service wants two more properties:

* **Sharding** — records spread over ``shard-XX/`` subdirectories by key
  hash, so directory listings stay short and inter-process locking can be
  per-shard instead of whole-cache (writers to different shards never
  contend).
* **Inter-process write guarding** — every store (and the optional
  compute-on-miss path) runs under the shard's
  :class:`~repro.engine.locks.ShardLock`, so several serving workers
  sharing one cache directory neither tear each other's multi-step
  updates nor duplicate the computation of one missing entry
  (:meth:`ShardedResultCache.get_or_compute` checks under the lock).

Each shard *is* a plain :class:`~repro.engine.cache.ResultCache` — same
atomic writes, same corrupt-entry quarantine, same code-version salting —
so everything docs/ENGINE.md promises about records holds per shard.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.engine.cache import ResultCache
from repro.engine.faults import FaultPlan
from repro.engine.locks import ShardLock

#: Default shard count: plenty to keep two-to-a-handful of serving
#: workers off each other's locks, few enough to stay inspectable.
DEFAULT_SHARDS = 16


class ShardedResultCache:
    """``n_shards`` :class:`ResultCache` directories behind one interface.

    Parameters mirror :class:`~repro.engine.cache.ResultCache`; *root*
    gains ``shard-XX/`` subdirectories (and ``shard-XX.lock`` guard
    files) on first use.  Keys, salting, and record formats are identical
    to the flat cache — only placement and locking differ.
    """

    def __init__(
        self,
        root: str | Path,
        n_shards: int = DEFAULT_SHARDS,
        salt: str | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.root = Path(root)
        self.n_shards = n_shards
        self._shards = [
            ResultCache(
                self.root / f"shard-{i:02d}", salt=salt, fault_plan=fault_plan
            )
            for i in range(n_shards)
        ]
        self._locks = [
            ShardLock(self.root / f"shard-{i:02d}.lock") for i in range(n_shards)
        ]

    # -- addressing --------------------------------------------------------

    def key(self, fields: dict) -> str:
        """Fingerprint of *fields* (identical across shards)."""
        return self._shards[0].key(fields)

    def shard_index(self, fields: dict) -> int:
        """Which shard holds *fields* (stable: derived from the key hash)."""
        return int(self.key(fields)[:8], 16) % self.n_shards

    def shard(self, fields: dict) -> ResultCache:
        return self._shards[self.shard_index(fields)]

    def lock(self, fields: dict) -> ShardLock:
        return self._locks[self.shard_index(fields)]

    # -- cache protocol ----------------------------------------------------

    def get(self, fields: dict) -> dict | None:
        """The stored record, or ``None`` — under the shard's reader lock.

        The lock keeps reads out of another process's multi-step update;
        torn or corrupt records are still quarantined exactly as the flat
        cache does (atomic replaces make lockless reads *safe*, the lock
        makes them *non-racy* with :meth:`get_or_compute`).
        """
        index = self.shard_index(fields)
        with self._locks[index].shared():
            return self._shards[index].get(fields)

    def put(self, fields: dict, record: dict) -> None:
        """Store *record* under the shard's writer lock."""
        index = self.shard_index(fields)
        with self._locks[index].exclusive():
            self._shards[index].put(fields, record)

    def get_or_compute(
        self, fields: dict, compute: Callable[[], dict]
    ) -> tuple[dict, bool]:
        """Return ``(record, was_hit)``; compute-and-store on a miss.

        The shard's exclusive lock is held across *check -> compute ->
        store*, so when two processes miss the same key simultaneously,
        exactly one computes and the other reads the freshly stored
        record — the "no duplicate work" contract serving workers rely
        on.  The record is read once, under that lock: callers reach
        here after their own :meth:`get` missed.  Keep *compute* bounded:
        it runs under the lock (per-shard, so unrelated keys don't wait).
        """
        index = self.shard_index(fields)
        with self._locks[index].exclusive():
            record = self._shards[index].get(fields)
            if record is not None:
                return record, True
            record = compute()
            self._shards[index].put(fields, record)
            return record, False

    # -- maintenance -------------------------------------------------------

    @property
    def corrupt_count(self) -> int:
        """Quarantined unreadable records, summed over shards."""
        return sum(shard.corrupt_count for shard in self._shards)

    def clear(self) -> int:
        """Delete every record in every shard; returns records removed."""
        removed = 0
        for index, shard in enumerate(self._shards):
            with self._locks[index].exclusive():
                removed += shard.clear()
        return removed

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)
