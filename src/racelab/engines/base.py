"""The engine core: one driver loop, epochs, the access path and the release step.

Engines process one validated trace in order, one instance per analysis
stream.  The driver loop, ``Engine.stream(tr)``, walks the trace's columns
in blocks of ``BLOCK`` events and dispatches on the int kind code to four
handlers, ``_acquire``, ``_release``, ``_read`` and ``_write``, each called
as ``(index, thread, target, marked)``; no ``Event`` is built.  It yields
each block's reports once the block ends and drops them when the next
block starts, so a caller that writes or folds them block by block
(``analyze``, ``diff``, ``bench``) holds one block's reports at a time,
however many races the trace has.  Every report of an event is appended
inside that event's handler, so no event's reports span two blocks.
``Engine.run(tr)`` keeps them all and returns the list.
Reports arrive sorted, each once: events are walked in index order, and an
access appends its reports in kind order (a read at most ``write-read``, a
write ``read-write`` then ``write-write``), so they increase strictly by
``(event index, variable, kind)``.  ``render_reports`` relies on it without
sorting, and the tests' checker asserts it after every event.
``Engine.process(ev)`` calls one ``Trace.events`` view's handler and
counts it with the same tally; only ``perfbench/layers.py`` and its guard
tests call it.

Every engine is the paper's sampling algorithm and differs only in how it
timestamps.  ``Engine`` keeps only what every engine shares: the per-thread
epochs, the new-sample flags, the one access path, the one release step,
the driver loop and its tally.  A release that consumes a sample (the
first after a marked access) writes the epoch into the clock's own
component ``rows[t][t]`` and advances the epoch; every release then calls
``_publish``, which writes no thread row.  A subclass supplies only
``_acquire`` and ``_publish``, and keeps ``rows``: ``rows[t]`` is thread
t's live clock, read in place by the race checks and copied only by
``observe``.  An access is handed to the histories only if it is marked or
``AccessHistories.will_check`` says it will be checked, so an unchecked
access costs O(1).  A checked one is a single ``check_and_update`` call
that reads the live row and appends any ``(event_index, variable, kind)``
reports to ``self.reports``; it builds no timestamp and no list.  With
``sample_all`` set (Djit+), every access is sampled and every release ends
an epoch; since no access then reaches ``will_check``, the histories are
sampled-only in either mode.

``observe(engine, hook)`` hands ``hook`` each event's effective timestamp,
the one ``racelab diff`` compares with the oracle's, by wrapping the
handlers from outside.  The engines check no invariant of their own; the
tests' checker (``tests/invariants.py``) observes them.
"""

from __future__ import annotations

from itertools import count, islice, repeat
from typing import Callable, Iterator, List

from ..history import EXTENDED, SAMPLED_ONLY, AccessHistories, Report
from ..metrics import RunMetrics
from ..trace import ACQ, REL, Event, Trace

# Events per block of the driver loop: a caller of ``Engine.stream`` holds
# at most this many events' reports.
BLOCK = 4096


class Engine:
    """Base class; every subclass keeps ``rows`` (``rows[t]`` is thread t's
    live clock, not copied; callers must not mutate or keep it) and defines
    the two timestamping methods:

    * ``_acquire(index, thread, lock, marked)``: the acquire handler;
    * ``_publish(thread, lock, folded)``: at every release, after
      ``_release`` has written the epoch into ``rows[thread][thread]`` and
      advanced it (``folded`` is true when this release did so), hand the
      clock to the lock; it writes no thread row.
    """

    # Every access counts as marked and every release ends an epoch.
    sample_all = False

    def __init__(self, num_threads: int, num_locks: int, num_vars: int, *, mode: str = SAMPLED_ONLY):
        self.num_threads = num_threads
        if self.sample_all and mode == EXTENDED:
            mode = SAMPLED_ONLY  # extended mode's watermarks would go unread
        self.histories = AccessHistories(num_vars, num_threads, mode)
        self.metrics = RunMetrics(num_threads=num_threads)
        self.reports: List[Report] = []
        self.epochs = [1] * num_threads
        self.new_sample = [self.sample_all] * num_threads

    # -- the access path and the release step ----------------------------------

    def _read(self, index, thread, var, marked):
        if marked:
            self.new_sample[thread] = True
        elif not self.histories.will_check(thread, var, False):
            return
        self.histories.check_and_update(
            index, thread, var, False, self.rows[thread], self.epochs[thread], marked, self.reports
        )

    def _write(self, index, thread, var, marked):
        if marked:
            self.new_sample[thread] = True
        elif not self.histories.will_check(thread, var, True):
            return
        self.histories.check_and_update(
            index, thread, var, True, self.rows[thread], self.epochs[thread], marked, self.reports
        )

    def _release(self, index, thread, lock, marked):
        folded = self.new_sample[thread]
        if folded:
            self.rows[thread][thread] = self.epochs[thread]
            self.epochs[thread] += 1
            self.metrics.epoch_increments += 1
            self.new_sample[thread] = self.sample_all
        self._publish(thread, lock, folded)

    # -- driver ---------------------------------------------------------------

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
        """Handle one ``Trace.events`` view with its handler and count it
        as ``stream`` does; returns the races it reports.  Only
        ``perfbench/layers.py`` and its guard tests call it."""
        k = ev.kind
        before = len(self.reports)
        (self._acquire, self._release, self._read, self._write)[k](
            ev.index, ev.thread, ev.target, ev.marked or self.sample_all
        )
        self.metrics.race_count += len(self.reports) - before
        self._tally(1, k == ACQ, k == REL, ev.marked and ev.is_access)
        return self.reports[before:]

    def stream(self, tr: Trace) -> Iterator[List[Report]]:
        """The driver loop: walk ``tr`` ``BLOCK`` events at a time and yield
        each block's reports, in event order, as ``self.reports``, once
        they are counted in ``race_count``; the engine drops them when the
        next block starts, and holds none before the first block or after
        the last.  It reads the four handlers once, so ``observe`` an
        engine before streaming it."""
        handlers = (self._acquire, self._release, self._read, self._write)
        m = self.metrics
        marks = repeat(True) if self.sample_all else tr.marks
        events = zip(count(1), tr.kinds, tr.threads, tr.targets, marks)
        for _ in range(0, len(tr), BLOCK):
            self.reports = reports = []
            for i, k, t, x, mk in islice(events, BLOCK):
                handlers[k](i, t, x, mk)
            m.race_count += len(reports)
            yield reports
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


def observe(engine: Engine, hook: Callable[[int, List[int]], None]) -> None:
    """Call ``hook(index, eff)`` after each event ``engine`` handles, by
    replacing its four handlers with instance attributes that wrap them;
    ``Engine.stream``, the driver loop, reads them when it starts.
    ``eff`` is a copy of ``rows[t]`` whose own component is the epoch read
    before the handler ran.  Acquires and accesses leave ``epochs`` as it
    is; a release writes at most the own component before ``_publish``,
    which writes no thread row, so at a release ``eff`` is the clock with
    the epoch written, before the epoch advances.  Calls stack, the first
    hook called first."""
    rows, epochs = engine.rows, engine.epochs

    def wrap(handler):
        def observed(index, thread, target, marked):
            epoch = epochs[thread]
            handler(index, thread, target, marked)
            eff = list(rows[thread])
            eff[thread] = epoch
            hook(index, eff)

        return observed

    for name in ("_acquire", "_release", "_read", "_write"):
        setattr(engine, name, wrap(getattr(engine, name)))
