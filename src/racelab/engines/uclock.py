"""Freshness-timestamp engine: skips redundant acquire joins and release copies.

The sampling engine's clocks plus freshness clocks.  Each thread keeps, next
to its sampling clock, a freshness clock whose own component counts exactly
the number of component changes applied to the sampling clock so far; locks
carry both clocks plus the id of the last releasing thread.  An acquire is
skipped when the lock's freshness for the last releaser does not exceed the
acquirer's; a release skips the copy when the thread's own freshness equals
the lock's record of it.  A never-released lock has releaser 0 and an
all-zero freshness clock, so the same guard skips its acquires.
"""

from __future__ import annotations

from .base import check_monotone
from .sampling import SamplingEngine


class UclockEngine(SamplingEngine):
    name = "uclock"

    def __init__(self, num_threads, num_locks, num_vars, **kwargs):
        super().__init__(num_threads, num_locks, num_vars, **kwargs)
        self.u_threads = [[0] * num_threads for _ in range(num_threads)]
        self.u_locks = [[0] * num_threads for _ in range(num_locks)]
        self.last_releaser = [0] * num_locks

    def _acquire(self, index, t, lock, marked):
        lr = self.last_releaser[lock]
        ut, ul = self.u_threads[t], self.u_locks[lock]
        if ul[lr] <= ut[lr]:
            self.metrics.acquires_skipped += 1
            return
        ct, cl = self.c_threads[t], self.c_locks[lock]
        if self.debug:
            old = list(ct)
            # No lock knows t's freshness better than t does, so the join
            # below never moves ut[t]: only this acquire's changes bump it.
            assert ul[t] <= ut[t], f"thread {t}: lock records freshness {ul[t]} > {ut[t]}"
        changes = 0  # one pass joins both clock pairs
        for s in range(self.num_threads):
            u = ul[s]
            if u > ut[s]:
                ut[s] = u
            c = cl[s]
            if c > ct[s]:
                ct[s] = c
                changes += 1
        ut[t] += changes
        self.metrics.full_traversals += 2
        if self.debug:
            check_monotone(old, ct, "thread")

    def _fold(self, t):
        super()._fold(t)
        self.u_threads[t][t] += 1

    def _publish(self, t, lock):
        self.last_releaser[lock] = t
        ct, ut = self.c_threads[t], self.u_threads[t]
        if ut[t] != self.u_locks[lock][t]:
            if self.debug:
                check_monotone(self.c_locks[lock], ct, "lock")
            self.c_locks[lock] = list(ct)
            self.u_locks[lock] = list(ut)
            self.metrics.full_traversals += 2
            self.metrics.releases_copied += 1
