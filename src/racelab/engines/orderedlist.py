"""Ordered-list engine: lazy copies plus scalar lock freshness.

Thread timestamps live in move-to-front ordered lists.  A release of lock
l publishes one record, ``published[l] = (view, releaser, freshness,
epoch)``: the thread's list itself as a shared, read-only view, the
releaser id, its freshness scalar and its lock epoch (below).  An acquire
that learns anything new walks only a prefix of the view, as long as the
freshness gap, and writes what is newer in one pass after at most one deep
copy.  Before any release every lock shares the record ``(bottom, 0, 0,
0)``, whose bottom list is built for thread 0 and whose freshness 0 the
freshness guard always skips.

A thread's list links every entry but its own, which is private to the
thread: no prefix walk reaches it, so the base release step writes the
epoch there in place, even while a lock still views the list.  That write
counts as one change in the thread's freshness, which ``_publish`` bumps.
Since a view's own entry keeps moving after the release, the release also
publishes its epoch ``epochs[t] - 1`` as the lock's epoch, the releaser's
component, which acquirers merge as one extra candidate.  An acquirer's own
entry in a view is never newer than its own: a thread's component enters
another clock only through its releases' lock epochs.

A release adds a reference to the thread's list and drops the one of the
view it replaces, so re-publishing a list to the lock that already holds it
allocates nothing.  A thread's list is shared while a lock still holds a
view of it (its reference count is above one).  When the list must change,
the thread sets it in place if every view has since been dropped, and
deep-copies it otherwise.
"""

from __future__ import annotations

from ..olist import OrderedList
from .base import Engine


class OrderedListEngine(Engine):
    def __init__(self, num_threads, num_locks, num_vars, **kwargs):
        super().__init__(num_threads, num_locks, num_vars, **kwargs)
        self.o_threads = [OrderedList(num_threads, t) for t in range(num_threads)]
        self.rows = [lst.times for lst in self.o_threads]
        self.u_threads = [[0] * num_threads for _ in range(num_threads)]
        bottom = OrderedList(num_threads, 0)
        bottom.refs += num_locks
        self.published = [(bottom, 0, 0, 0)] * num_locks

    # -- handlers ------------------------------------------------------------

    def _acquire(self, index, t, lock, marked):
        view, lr, freshness, epoch = self.published[lock]
        ut = self.u_threads[t]
        if freshness <= ut[lr]:
            self.metrics.acquires_skipped += 1
            return
        d = freshness - ut[lr]
        ut[lr] = freshness
        # Self hand-offs fail the guard, so lr != t; the view never links
        # lr, so the lock epoch is the only candidate for lr's component.
        lst = self.o_threads[t]
        pairs = view.newer_in_prefix(d, lst)
        if epoch > lst.times[lr]:
            pairs.append((lr, epoch))
        if pairs:
            if lst.refs > 1:  # a lock still views the list: copy it
                lst.refs -= 1
                self.o_threads[t] = lst = lst.deep_copy()
                self.rows[t] = lst.times
                self.metrics.deep_copies += 1
                self.metrics.full_traversals += 1
            for tstar, n in pairs:
                lst.set(tstar, n)
            ut[t] += len(pairs)
        visited = min(d, self.num_threads - 1)
        self.metrics.nodes_visited += visited
        self.metrics.entries_saved += self.num_threads - 1 - visited

    def _publish(self, t, lock, folded):
        if folded:
            self.u_threads[t][t] += 1
        self.published[lock][0].refs -= 1
        lst = self.o_threads[t]
        lst.refs += 1
        self.published[lock] = (lst, t, self.u_threads[t][t], self.epochs[t] - 1)
        self.metrics.shallow_copies += 1
