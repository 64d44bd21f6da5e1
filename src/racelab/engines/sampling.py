"""Sampling timestamp engine: selective local-time increments.

Thread clocks start at bottom and the local time lives in a separate epoch
counter.  Only the first release after a marked access folds the epoch into
the thread clock and advances it, so clock components count exactly those
releases and their sum stays bounded by the sample size.  Every release still
copies the thread clock to the lock and every acquire still joins.  Locks
never released share one bottom row: ``_acquire`` only reads lock rows and
``_publish`` replaces them.
"""

from __future__ import annotations

from .base import Engine


class SamplingEngine(Engine):
    def __init__(self, num_threads, num_locks, num_vars, **kwargs):
        super().__init__(num_threads, num_locks, num_vars, **kwargs)
        self.c_threads = self.rows = [[0] * num_threads for _ in range(num_threads)]
        self.c_locks = [[0] * num_threads] * num_locks

    def _acquire(self, index, thread, lock, marked):
        ct = self.c_threads[thread]
        for s, c in enumerate(self.c_locks[lock]):
            if c > ct[s]:
                ct[s] = c
        self.metrics.full_traversals += 1

    def _publish(self, t, lock, folded):
        self.c_locks[lock] = list(self.c_threads[t])
        self.metrics.full_traversals += 1
        self.metrics.releases_copied += 1
