"""Baseline full happens-before detector (no sampling).

Per-thread clocks start at bottom with the own component at 1; every release
copies the thread clock to the lock and then advances the thread's local
component.  Every access is checked and recorded, regardless of marks.
"""

from __future__ import annotations

from typing import List

from ..clocks import bottom, join_into
from .base import Engine, check_monotone


class DjitpEngine(Engine):
    name = "djitp"

    def __init__(self, num_threads, num_locks, num_vars, **kwargs):
        super().__init__(num_threads, num_locks, num_vars, **kwargs)
        self.c_threads = [bottom(num_threads) for _ in range(num_threads)]
        for t in range(num_threads):
            self.c_threads[t][t] = 1
        self.c_locks = [bottom(num_threads) for _ in range(num_locks)]

    def _effective(self, thread: int) -> List[int]:
        return list(self.c_threads[thread])

    def _acquire(self, index, thread, lock, marked):
        join_into(self.c_threads[thread], self.c_locks[lock])
        self.metrics.full_traversals += 1

    def _release(self, index, thread, lock, marked):
        ct = self.c_threads[thread]
        if self.debug:
            check_monotone(self.c_locks[lock], ct, "lock")
        self.c_locks[lock] = list(ct)
        self.metrics.full_traversals += 1
        self.metrics.releases_copied += 1
        self._emit(thread)  # the release's timestamp precedes the local increment
        ct[thread] += 1
        self.metrics.epoch_increments += 1

    # Full detection: treat every access as recorded, ignoring marks.

    def _read(self, index, thread, var, marked):
        ct = self.c_threads[thread]
        reports = self.histories.check_and_update(index, thread, var, False, ct, ct[thread], True)
        if reports:
            self.reports.extend(reports)

    def _write(self, index, thread, var, marked):
        ct = self.c_threads[thread]
        reports = self.histories.check_and_update(index, thread, var, True, ct, ct[thread], True)
        if reports:
            self.reports.extend(reports)
