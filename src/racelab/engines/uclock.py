"""Freshness-timestamp engine: skips redundant acquire joins and release copies.

The sampling engine's clocks plus freshness clocks.  Each thread keeps, next
to its sampling clock, a freshness clock whose own component counts exactly
the number of component changes applied to the sampling clock so far; locks
carry both clocks plus the id of the last releasing thread.  An acquire is
skipped when the lock's freshness for the last releaser does not exceed the
acquirer's; a release skips the copy when the thread's own freshness equals
the lock's record of it.  A never-released lock has releaser 0 and an
all-zero freshness clock, so the same guard skips its acquires.

A join that is not skipped takes a clock component only where the lock is
fresher.  Freshness f for thread s names s's clock after its f-th change,
C_s(f).  Clocks and freshness travel together, so every thread or lock clock
is at least C_s(f) for its freshness f on s, and its component s is at most
C_s(f)'s.  Where the acquirer is as fresh as the lock on s, its component s
is therefore at least the lock's.
"""

from __future__ import annotations

from .sampling import SamplingEngine


class UclockEngine(SamplingEngine):
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
        # No lock knows t's freshness better than t does, so the join below
        # never moves ut[t]: only this acquire's changes bump it.  Only the
        # components the lock is fresher on can be newer (module docstring).
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

    def _fold(self, t):
        super()._fold(t)
        self.u_threads[t][t] += 1

    def _publish(self, t, lock):
        self.last_releaser[lock] = t
        ut = self.u_threads[t]
        if ut[t] != self.u_locks[lock][t]:
            self.c_locks[lock] = list(self.c_threads[t])
            self.u_locks[lock] = list(ut)
            self.metrics.full_traversals += 2
            self.metrics.releases_copied += 1
