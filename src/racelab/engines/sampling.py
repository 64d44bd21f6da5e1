"""Sampling timestamp engine: selective local-time increments.

Thread clocks start at bottom and the local time lives in a separate epoch
counter.  Only the first release after a marked access folds the epoch into
the thread clock and advances it, so clock components count exactly those
releases and their sum stays bounded by the sample size.  Every release still
copies the thread clock to the lock and every acquire still joins.
"""

from __future__ import annotations

from .base import Engine, check_monotone


class SamplingEngine(Engine):
    name = "sampling"

    def __init__(self, num_threads, num_locks, num_vars, **kwargs):
        super().__init__(num_threads, num_locks, num_vars, **kwargs)
        self.c_threads = [[0] * num_threads for _ in range(num_threads)]
        self.c_locks = [[0] * num_threads for _ in range(num_locks)]

    def _row(self, thread):
        return self.c_threads[thread]

    def _acquire(self, index, thread, lock, marked):
        ct = self.c_threads[thread]
        old = list(ct) if self.debug else None
        for s, c in enumerate(self.c_locks[lock]):
            if c > ct[s]:
                ct[s] = c
        self.metrics.full_traversals += 1
        if self.debug:
            check_monotone(old, ct, "thread")

    def _fold(self, t):
        self.c_threads[t][t] = self.epochs[t]

    def _publish(self, t, lock):
        ct = self.c_threads[t]
        if self.debug:
            check_monotone(self.c_locks[lock], ct, "lock")
        self.c_locks[lock] = list(ct)
        self.metrics.full_traversals += 1
        self.metrics.releases_copied += 1
