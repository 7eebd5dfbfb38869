"""Inter-process shard locks (``flock``-style).

The engine's :class:`~repro.engine.cache.ResultCache` writes atomically
(temp file + ``os.replace``), which keeps *readers* safe, but once several
long-running serving workers share one cache directory, concurrent
writers may both pay for the same missing entry (duplicate work).

:class:`ShardLock` closes that gap with an advisory ``fcntl.flock`` on a
dedicated ``*.lock`` file next to the guarded data.  Each acquisition
opens its *own* file descriptor, so one lock object is safe to share
across threads and survives ``fork`` (flock ownership follows the open
file description, and a fresh descriptor per acquire means no
accidental sharing).  Locks are advisory: every cooperating writer must
go through the same lock path, which
:class:`~repro.engine.sharded.ShardedResultCache` does.

On platforms without ``fcntl`` (Windows) the lock degrades to a no-op —
single-process correctness is unaffected (atomic replaces still hold);
only the cross-process duplicate-work guarantee is lost.
:data:`HAVE_FLOCK` reports which behaviour is in force.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

try:  # POSIX only; Windows callers degrade to no-op advisory locking.
    import fcntl

    HAVE_FLOCK = True
except ImportError:  # pragma: no cover - exercised only on Windows
    fcntl = None  # type: ignore[assignment]
    HAVE_FLOCK = False


class ShardLock:
    """One advisory inter-process lock bound to a ``*.lock`` file.

    Use the context managers::

        lock = ShardLock(cache_dir / "shard-00.lock")
        with lock.exclusive():
            ...  # sole writer across every cooperating process
        with lock.shared():
            ...  # concurrent with other readers, excluded from writers

    Acquisition blocks until granted.  The lock file is created on first
    use and deliberately never deleted: unlinking a lock file while
    another process holds its descriptor would silently split the lock
    domain in two.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Lifetime count of exclusive acquisitions (tests/diagnostics).
        self.exclusive_acquisitions = 0
        #: Lifetime count of shared acquisitions (tests/diagnostics).
        self.shared_acquisitions = 0

    def _open(self) -> int:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        return os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)

    @contextmanager
    def _locked(self, flags: int) -> Iterator[None]:
        if not HAVE_FLOCK:
            yield
            return
        fd = self._open()
        try:
            fcntl.flock(fd, flags)
            yield
        finally:
            # Closing the descriptor releases the flock; no explicit
            # LOCK_UN needed (and none would survive a crashed holder
            # anyway — the kernel drops the lock with the process).
            os.close(fd)

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Block until this process is the sole holder (writer lock)."""
        flags = fcntl.LOCK_EX if HAVE_FLOCK else 0
        with self._locked(flags):
            self.exclusive_acquisitions += 1
            yield

    @contextmanager
    def shared(self) -> Iterator[None]:
        """Block until no exclusive holder remains (reader lock)."""
        flags = fcntl.LOCK_SH if HAVE_FLOCK else 0
        with self._locked(flags):
            self.shared_acquisitions += 1
            yield
