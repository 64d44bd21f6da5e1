"""Ordered-list engine: lazy copies plus scalar lock freshness.

Thread timestamps live in move-to-front ordered lists.  A release publishes
the thread's list itself to the lock as a shared, read-only view, together
with the releaser id and a freshness scalar; an acquire that learns anything
new walks only a prefix of the lock's list, as long as the freshness gap,
and writes what is newer in one pass after at most one deep copy.  Before
any release every lock views one bottom list, and its releaser and freshness
are 0, which the freshness guard always skips.

A release does not fold the new local time into the list at all: the value
is kept aside as a pending epoch (0 when there is none, since epochs start at
1), published as the lock's epoch, the releaser's own component, which
acquirers merge as one extra candidate, and folded into the list the next
time the list must change, in place or in a deep copy.  Folding it at the
release would change the list while an earlier release's view may still
share it, at the cost of a deep copy.

A release adds a reference to the thread's list and drops the one of the
view it replaces, so re-publishing a list to the lock that already holds it
allocates nothing.  A thread's list is shared while a lock still holds a
view of it (its reference count is above one).  When the list must change,
the thread mutates it in place if every view has since been dropped, and
deep-copies it otherwise.
"""

from __future__ import annotations

from typing import Sequence

from ..olist import OrderedList
from .base import Engine


class OrderedListEngine(Engine):
    def __init__(self, num_threads, num_locks, num_vars, **kwargs):
        super().__init__(num_threads, num_locks, num_vars, **kwargs)
        self.o_threads = [OrderedList(num_threads) for _ in range(num_threads)]
        self.u_threads = [[0] * num_threads for _ in range(num_threads)]
        self.pending_local = [0] * num_threads
        bottom = OrderedList(num_threads)
        bottom.refs += num_locks
        self.lock_views = [bottom] * num_locks
        self.last_releaser = [0] * num_locks
        self.lock_freshness = [0] * num_locks
        self.lock_epoch = [0] * num_locks

    # -- views -------------------------------------------------------------

    def _row(self, thread: int) -> Sequence[int]:
        # The pending epoch only ever stands for the own component, which
        # the race checks ignore.
        return self.o_threads[thread].times

    def _ensure_exclusive(self, thread: int) -> OrderedList:
        """The thread's list, made exclusive, with its pending epoch folded in."""
        lst = self.o_threads[thread]
        if lst.refs > 1:
            fresh = lst.deep_copy()
            lst.refs -= 1
            self.o_threads[thread] = lst = fresh
            self.metrics.deep_copies += 1
            self.metrics.full_traversals += 1
        pending = self.pending_local[thread]
        if pending:
            # Fold point for the disentangled epoch, on both the copy and the
            # in-place path; the freshness bump for this change was already
            # counted at the release that recorded it.  Only ``_fold`` sets a
            # pending epoch, right before ``_publish`` shares the list, so it
            # waits here for the list's next change.
            lst.set(thread, pending)
            self.pending_local[thread] = 0
        return lst

    # -- handlers ------------------------------------------------------------

    def _acquire(self, index, t, lock, marked):
        lr = self.last_releaser[lock]
        freshness = self.lock_freshness[lock]
        ut = self.u_threads[t]
        if freshness <= ut[lr]:
            self.metrics.acquires_skipped += 1
            return
        d = freshness - ut[lr]
        ut[lr] = freshness
        # Self hand-offs always fail the guard, so lr != t.  The walk compares
        # with the list, which lacks only the pending epoch: drop an own
        # entry at or below it.
        pairs = self.lock_views[lock].newer_in_prefix(d, self.o_threads[t])
        pending = self.pending_local[t]
        if pending:
            pairs = [p for p in pairs if p[0] != t or p[1] > pending]
        if pairs:
            lst = self._ensure_exclusive(t)
            for tstar, n in pairs:
                lst.set(tstar, n)
            ut[t] += len(pairs)
        epoch = self.lock_epoch[lock]
        if epoch > self.o_threads[t].get(lr):
            self._ensure_exclusive(t).set(lr, epoch)
            ut[t] += 1
        visited = min(d, self.num_threads)
        self.metrics.nodes_visited += visited
        self.metrics.entries_saved += self.num_threads - visited

    def _fold(self, t):
        self.pending_local[t] = self.epochs[t]
        self.u_threads[t][t] += 1

    def _publish(self, t, lock):
        self.lock_views[lock].refs -= 1
        self.lock_views[lock] = lst = self.o_threads[t]
        lst.refs += 1
        self.metrics.shallow_copies += 1
        self.last_releaser[lock] = t
        self.lock_freshness[lock] = self.u_threads[t][t]
        self.lock_epoch[lock] = self.pending_local[t] or lst.get(t)
