"""Ordered-list engine: lazy copies plus scalar lock freshness.

Thread timestamps live in move-to-front ordered lists.  A release publishes
the thread's list itself to the lock as a shared, read-only view, together
with the releaser id and a freshness scalar; an acquire that learns anything
new traverses only a prefix of the lock's list, as long as the freshness gap,
and deep-copies its own list at most once per mutation batch.  Before any
release a lock holds a view of one bottom list, and its releaser and
freshness are 0, which the freshness guard always skips.

A release does not fold the new local time into the list at all: the value
is kept aside as a pending epoch (0 when there is none, since epochs start at
1), published as the lock's epoch, the releaser's own component, which
acquirers merge as one extra candidate, and folded into the list the next
time the list must change, in place or in a deep copy.  Folding it at the
release would change the list while an earlier release's view may still
share it, at the cost of a deep copy.

A thread's list is shared after a release and stays shared while a lock
still holds a view of it (its reference count is above one).  When the list
must change, the thread mutates it in place if every view has since been
dropped, and deep-copies it otherwise.  Re-publishing a list to the lock
that already holds it drops and adds one reference and allocates nothing.
"""

from __future__ import annotations

from typing import Sequence

from ..olist import OrderedList
from .base import Engine


class OrderedListEngine(Engine):
    name = "orderedlist"

    def __init__(self, num_threads, num_locks, num_vars, **kwargs):
        super().__init__(num_threads, num_locks, num_vars, **kwargs)
        self.o_threads = [OrderedList(num_threads) for _ in range(num_threads)]
        self.u_threads = [[0] * num_threads for _ in range(num_threads)]
        self.pending_local = [0] * num_threads
        bottom = OrderedList(num_threads)
        self.lock_views = [bottom.shallow_copy() for _ in range(num_locks)]
        self.last_releaser = [0] * num_locks
        self.lock_freshness = [0] * num_locks
        self.lock_epoch = [0] * num_locks
        self.deep_copies_per_thread = [0] * num_threads

    # -- views -------------------------------------------------------------

    def _row(self, thread: int) -> Sequence[int]:
        # The pending epoch only ever stands for the own component, which
        # the race checks ignore.
        return self.o_threads[thread].times

    def _get_merged(self, thread: int, tstar: int) -> int:
        """Component view used by merge guards; consults the pending epoch."""
        if tstar == thread and self.pending_local[thread]:
            return self.pending_local[thread]
        return self.o_threads[thread].get(tstar)

    def _ensure_exclusive(self, thread: int) -> None:
        lst = self.o_threads[thread]
        if self.debug:
            views = sum(1 for v in self.lock_views if v is lst)
            assert lst.refs == 1 + views, f"thread {thread}: refs {lst.refs}, {views} views"
        if lst.refs > 1:
            fresh = lst.deep_copy()
            lst.refs -= 1
            self.o_threads[thread] = lst = fresh
            self.metrics.deep_copies += 1
            self.metrics.full_traversals += 1
            self.deep_copies_per_thread[thread] += 1
        pending = self.pending_local[thread]
        if pending:
            # Fold point for the disentangled epoch, on both the copy and the
            # in-place path; the freshness bump for this change was already
            # counted at the release that recorded it.  Only ``_fold`` sets a
            # pending epoch, right before ``_publish`` shares the list, so it
            # waits here for the list's next change.
            lst.set(thread, pending)
            self.pending_local[thread] = 0

    # -- handlers ------------------------------------------------------------

    def _acquire(self, index, t, lock, marked):
        lr = self.last_releaser[lock]
        freshness = self.lock_freshness[lock]
        ut = self.u_threads[t]
        if freshness <= ut[lr]:
            self.metrics.acquires_skipped += 1
            return
        view = self.lock_views[lock]
        if self.debug:
            # Self hand-offs always fail the guard, so the merged view is
            # never the thread's own list.
            assert lr != t, "self-handoff passed the freshness guard"
            assert view is not self.o_threads[t]
        d = freshness - ut[lr]
        ut[lr] = freshness
        # Filtering against the list alone drops no entry the merge needs:
        # a pending epoch can only raise the thread's own component.
        for tstar, n in view.newer_in_prefix(d, self.o_threads[t]):
            if n > self._get_merged(t, tstar):
                self._ensure_exclusive(t)
                self.o_threads[t].set(tstar, n)
                ut[t] += 1
        epoch = self.lock_epoch[lock]
        if epoch > self._get_merged(t, lr):
            self._ensure_exclusive(t)
            self.o_threads[t].set(lr, epoch)
            ut[t] += 1
        visited = min(d, self.num_threads)
        self.metrics.nodes_visited += visited
        self.metrics.entries_saved += self.num_threads - visited

    def _fold(self, t):
        self.pending_local[t] = self.epochs[t]
        self.u_threads[t][t] += 1

    def _publish(self, t, lock):
        self.lock_views[lock].refs -= 1
        self.lock_views[lock] = self.o_threads[t].shallow_copy()
        self.metrics.shallow_copies += 1
        self.last_releaser[lock] = t
        self.lock_freshness[lock] = self.u_threads[t][t]
        self.lock_epoch[lock] = self.pending_local[t] or self.o_threads[t].get(t)
