"""The engine core: one driver loop, epochs, the access path and the release skeleton.

Engines process one validated trace in order, one instance per analysis
stream.  ``Engine.run`` walks the trace's columns and dispatches on the int
kind code to four handlers, ``_acquire``, ``_release``, ``_read`` and
``_write``, each called as ``(index, thread, target, marked)``; no ``Event``
is built.  ``Engine.process(ev)`` feeds one ``Trace.events`` view through
the same loop and the same tally; only ``perfbench/layers.py`` and its
guard tests call it.

Every engine is the paper's sampling algorithm and differs only in how it
timestamps.  ``Engine`` keeps only what every engine shares: the per-thread
epochs, the new-sample flags, the one access path, the release skeleton,
the driver loop and its tally.  A subclass supplies ``_acquire``, ``_row``
(the thread's live clock, read in place by the race checks and copied only
for the snapshot hook), ``_fold`` (write the epoch into the clock at a
sample-consuming release) and ``_publish`` (hand the clock to the lock at
every release).  An access is handed to the histories only if it is marked
or ``AccessHistories.will_check`` says it will be checked, so an unchecked
access costs O(1).  A checked one is a single ``check_and_update`` call
that reads the live row and appends any ``(event_index, variable, kind)``
reports to ``self.reports``; it builds no timestamp and no list.  With
``sample_all`` set (Djit+), every access is sampled and every release ends
an epoch; since no access then reaches ``will_check``, the histories are
sampled-only in either mode.

The optional ``on_event`` hook receives ``(index, effective_timestamp)`` at
the event's timestamp point: after the acquire join or access handling, and
at releases after the fold but before the epoch advances.  This is the
per-event timestamp the differential tests compare against the declarative
tables.  The driver loop is the same with and without a hook.
"""

from __future__ import annotations

from itertools import count, repeat
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..history import EXTENDED, SAMPLED_ONLY, AccessHistories, Report
from ..metrics import RunMetrics
from ..trace import ACQ, REL, Event, Trace

SnapshotHook = Callable[[int, List[int]], None]


class Engine:
    """Base class; subclasses implement ``_acquire``, ``_row``, ``_fold``
    and ``_publish``."""

    name = "base"
    # Every access counts as marked and every release ends an epoch.
    sample_all = False

    def __init__(
        self,
        num_threads: int,
        num_locks: int,
        num_vars: int,
        *,
        mode: str = SAMPLED_ONLY,
        on_event: Optional[SnapshotHook] = None,
        debug: bool = False,
    ):
        self.num_threads = num_threads
        self.on_event = on_event
        self.debug = debug
        if self.sample_all and mode == EXTENDED:
            mode = SAMPLED_ONLY  # extended mode's watermarks would go unread
        self.histories = AccessHistories(num_vars, num_threads, mode)
        self.metrics = RunMetrics(num_threads=num_threads)
        self.reports: List[Report] = []
        self.epochs = [1] * num_threads
        self.new_sample = [self.sample_all] * num_threads

    # -- timestamping, per engine ---------------------------------------------

    def _acquire(self, index: int, thread: int, lock: int, marked: bool) -> None:
        raise NotImplementedError

    def _row(self, thread: int) -> Sequence[int]:
        """The thread's live clock, not copied; callers must not mutate or keep it."""
        raise NotImplementedError

    def _fold(self, thread: int) -> None:
        """At a sample-consuming release: write the epoch into the clock."""
        raise NotImplementedError

    def _publish(self, thread: int, lock: int) -> None:
        """At every release, after the epoch step: hand the clock to the lock."""
        raise NotImplementedError

    def _effective(self, thread: int) -> List[int]:
        """Thread clock with the own component replaced by the current epoch;
        a fresh list, built only for the snapshot hook."""
        eff = list(self._row(thread))
        eff[thread] = self.epochs[thread]
        return eff

    # -- the access path and the release skeleton ------------------------------

    def _read(self, index, thread, var, marked):
        if marked:
            self.new_sample[thread] = True
        elif not self.histories.will_check(thread, var, False):
            return
        self.histories.check_and_update(
            index, thread, var, False, self._row(thread), self.epochs[thread], marked, self.reports
        )

    def _write(self, index, thread, var, marked):
        if marked:
            self.new_sample[thread] = True
        elif not self.histories.will_check(thread, var, True):
            return
        self.histories.check_and_update(
            index, thread, var, True, self._row(thread), self.epochs[thread], marked, self.reports
        )

    def _release(self, index, thread, lock, marked):
        hook = self.on_event
        if self.new_sample[thread]:
            self._fold(thread)
            if hook is not None:
                hook(index, self._effective(thread))
            self.epochs[thread] += 1
            self.metrics.epoch_increments += 1
            self.new_sample[thread] = self.sample_all
        elif hook is not None:
            hook(index, self._effective(thread))
        self._publish(thread, lock)

    # -- driver ---------------------------------------------------------------

    def _walk(self, rows: Iterable[Tuple[int, int, int, int, bool]]) -> None:
        """The driver loop over ``(index, kind, thread, target, marked)`` rows.

        Releases call the hook mid-handler; every other event calls it here.
        """
        handlers = (self._acquire, self._release, self._read, self._write)
        hook = self.on_event
        for i, k, t, x, mk in rows:
            handlers[k](i, t, x, mk)
            if hook is not None and k != REL:
                hook(i, self._effective(t))

    def _tally(self, before: int, events: int, acquires: int, releases: int, sampled: int) -> None:
        """Count walked events and the races reported since ``before``."""
        m = self.metrics
        m.events_total += events
        m.acquires_total += acquires
        m.releases_total += releases
        m.accesses_total += events - acquires - releases
        m.accesses_sampled += sampled
        m.race_count += len(self.reports) - before
        m.race_checks = self.histories.race_checks

    def process(self, ev: Event) -> List[Report]:
        """Handle one ``Trace.events`` view; returns the races it reports.
        Only ``perfbench/layers.py`` and its guard tests call it."""
        k = ev.kind
        before = len(self.reports)
        self._walk(((ev.index, k, ev.thread, ev.target, ev.marked or self.sample_all),))
        self._tally(before, 1, k == ACQ, k == REL, ev.marked and ev.is_access)
        return self.reports[before:]

    def run(self, tr: Trace) -> List[Report]:
        before = len(self.reports)
        marks = repeat(True) if self.sample_all else tr.marks
        self._walk(zip(count(1), tr.kinds, tr.threads, tr.targets, marks))
        self._tally(before, len(tr), tr.kinds.count(ACQ), tr.kinds.count(REL), tr.sample_size)
        return self.reports

    def racy_set(self) -> set:
        return {(index, kind) for index, _var, kind in self.reports}


def check_monotone(old: Sequence[int], new: Sequence[int], what: str) -> None:
    for a, b in zip(old, new):
        if b < a:
            raise AssertionError(f"{what} clock decreased: {old} -> {new}")
