"""A persistent ``spawn`` process pool that outlives individual sweeps.

``ProcessPoolExecutor`` is cheap to *use* and expensive to *start*:
under the ``spawn`` method every worker pays a fresh interpreter boot
plus the whole import graph.  :class:`WarmWorkerPool` pays it once per
sweep (or, injected, once per daemon lifetime): the pool spawns lazily on first submit and stays warm until ``close``, and
the supervisor ``rebuild``\\ s it in place (same object, fresh processes)
after a crash or deadline instead of throwing the object away.

Determinism is unaffected by pool lifetime: workers hold no sweep state
between items, and results are always gathered in submission order by
the callers.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["WarmWorkerPool"]


class WarmWorkerPool:
    """Lazily-spawned, reusable ``spawn`` process pool.

    * ``submit`` starts the pool on first use and keeps it warm after.
    * ``rebuild`` abandons the current processes (SIGTERM, no wait) and
      lets the next submit respawn — the recovery path for crashed or
      deadline-expired workers.
    * ``close`` shuts down cleanly (waits for in-flight work);
      ``abandon`` does not (the KeyboardInterrupt path).

    The pool is a context manager; exit calls ``close``.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False

    @property
    def alive(self) -> bool:
        """Whether worker processes are currently running."""
        return self._pool is not None

    def ensure(self) -> ProcessPoolExecutor:
        """Spawn the pool if needed and return it."""
        if self._closed:
            raise RuntimeError("WarmWorkerPool is closed")
        if self._pool is None:
            context = multiprocessing.get_context("spawn")
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._pool

    def submit(self, fn, *args) -> Future:
        """Submit work to the (lazily started) pool."""
        return self.ensure().submit(fn, *args)

    def rebuild(self) -> None:
        """Abandon the current processes; the next submit respawns.

        Used after a worker crash poisons the pool or a deadline expires
        with a worker wedged: in-flight futures are cancelled, processes
        are terminated without waiting, and the *same* pool object keeps
        serving — callers holding a reference never notice.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            self._terminate(pool)

    def abandon(self) -> None:
        """Tear down without waiting and refuse further submits."""
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            self._terminate(pool)

    def close(self) -> None:
        """Shut down cleanly, waiting for in-flight work (idempotent)."""
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    @staticmethod
    def _terminate(pool: ProcessPoolExecutor) -> None:
        # Deadline-expired workers may never return; terminate the
        # processes before shutdown so nothing blocks on them.
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self.alive else ("closed" if self._closed else "idle")
        return f"WarmWorkerPool(workers={self.workers}, {state})"
