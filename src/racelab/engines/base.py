"""The engine core: one driver loop, epochs, the access path and the release skeleton.

Engines process one validated trace in order, one instance per analysis
stream.  The driver loop, ``Engine._walk``, walks the trace's columns in
blocks of ``BLOCK`` events and dispatches on the int kind code to four
handlers, ``_acquire``, ``_release``, ``_read`` and ``_write``, each called
as ``(index, thread, target, marked)``; no ``Event`` is built.
``Engine.stream(tr)`` yields each block's reports once the block ends and
drops them when the next block starts, so a caller that writes or folds
them block by block (``analyze``, ``diff``, ``bench``) holds one block's
reports at a time, however many races the trace has.  Every report of an
event is appended inside that event's handler, so no event's reports span
two blocks.  ``Engine.run(tr)`` keeps them all and returns the list.
Reports arrive sorted, each once: events are walked in index order, and an
access appends its reports in kind order (a read at most ``write-read``, a
write ``read-write`` then ``write-write``), so they increase strictly by
``(event index, variable, kind)``.  ``render_reports`` relies on it without
sorting, and the tests' checker asserts it after every event.
``Engine.process(ev)`` feeds one ``Trace.events`` view through the same
loop and the same tally; only ``perfbench/layers.py`` and its guard tests
call it.

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
per-event timestamp ``racelab diff`` compares with the oracle's.  The
engines check no invariant of their own: the tests' checker
(``tests/invariants.py``) is an ``on_event`` hook that asserts monotone
clocks, the freshness bounds and the reference counts after every event.
The driver loop is the same with and without a hook.
"""

from __future__ import annotations

from itertools import count, islice, repeat
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..history import EXTENDED, SAMPLED_ONLY, AccessHistories, Report
from ..metrics import RunMetrics
from ..trace import ACQ, REL, Event, Trace

SnapshotHook = Callable[[int, List[int]], None]

# Events per block of the driver loop: a caller of ``Engine.stream`` holds
# at most this many events' reports.
BLOCK = 4096


class Engine:
    """Base class; every subclass defines the four timestamping methods:

    * ``_acquire(index, thread, lock, marked)``: the acquire handler;
    * ``_row(thread)``: the thread's live clock, not copied; callers must
      not mutate or keep it;
    * ``_fold(thread)``: at a sample-consuming release, write the epoch
      into the clock;
    * ``_publish(thread, lock)``: at every release, after the epoch step,
      hand the clock to the lock.
    """

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
    ):
        self.num_threads = num_threads
        self.on_event = on_event
        if self.sample_all and mode == EXTENDED:
            mode = SAMPLED_ONLY  # extended mode's watermarks would go unread
        self.histories = AccessHistories(num_vars, num_threads, mode)
        self.metrics = RunMetrics(num_threads=num_threads)
        self.reports: List[Report] = []
        self.epochs = [1] * num_threads
        self.new_sample = [self.sample_all] * num_threads

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

    def _walk(self, rows: Iterable[Tuple[int, int, int, int, bool]], n: int) -> Iterator[None]:
        """The driver loop over ``n`` ``(index, kind, thread, target, marked)``
        rows, ``BLOCK`` at a time; yields after each block, once the block's
        reports are counted in ``race_count``.

        Releases call the hook mid-handler; every other event calls it here.
        """
        handlers = (self._acquire, self._release, self._read, self._write)
        hook = self.on_event
        m = self.metrics
        rows = iter(rows)
        for _ in range(0, n, BLOCK):
            before = len(self.reports)
            for i, k, t, x, mk in islice(rows, BLOCK):
                handlers[k](i, t, x, mk)
                if hook is not None and k != REL:
                    hook(i, self._effective(t))
            m.race_count += len(self.reports) - before
            yield

    def _tally(self, events: int, acquires: int, releases: int, sampled: int) -> None:
        """Count walked events."""
        m = self.metrics
        m.events_total += events
        m.acquires_total += acquires
        m.releases_total += releases
        m.accesses_total += events - acquires - releases
        m.accesses_sampled += sampled
        m.race_checks = self.histories.race_checks

    def process(self, ev: Event) -> List[Report]:
        """Handle one ``Trace.events`` view; returns the races it reports.
        Only ``perfbench/layers.py`` and its guard tests call it."""
        k = ev.kind
        before = len(self.reports)
        for _ in self._walk(((ev.index, k, ev.thread, ev.target, ev.marked or self.sample_all),), 1):
            pass
        self._tally(1, k == ACQ, k == REL, ev.marked and ev.is_access)
        return self.reports[before:]

    def stream(self, tr: Trace) -> Iterator[List[Report]]:
        """Walk ``tr`` and yield each block's reports, in event order, as
        ``self.reports``; the engine drops them when the next block starts,
        and holds none before the first block or after the last."""
        marks = repeat(True) if self.sample_all else tr.marks
        self.reports = []
        for _ in self._walk(zip(count(1), tr.kinds, tr.threads, tr.targets, marks), len(tr)):
            yield self.reports
            self.reports = []
        self._tally(len(tr), tr.kinds.count(ACQ), tr.kinds.count(REL), tr.sample_size)

    def run(self, tr: Trace) -> List[Report]:
        """Walk ``tr`` whole; ``self.reports`` keeps every report, and is returned."""
        kept = self.reports
        for block in self.stream(tr):
            kept += block
        self.reports = kept
        return kept

    def racy_set(self) -> set:
        """``(event index, kind)`` of every report the engine holds."""
        return {(index, kind) for index, _var, kind in self.reports}
