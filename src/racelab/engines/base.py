"""Shared engine scaffolding: event dispatch, the access path, metrics, snapshots.

Engines process one validated trace in order, one instance per analysis
stream.  ``Engine.run`` walks the trace's columns and dispatches on the int
kind code to four handlers, ``_acquire``, ``_release``, ``_read`` and
``_write``, each called as ``(index, thread, target, marked)``; no ``Event``
is built.  ``Engine.process(ev)`` feeds one ``Event`` to the same handlers.

The optional ``on_event`` callback receives ``(event, effective_timestamp)``
at the event's timestamp point: after the acquire join or access handling,
and at releases after the local-time fold but before the epoch advances.
This is the per-event timestamp the differential tests compare against the
declarative tables.  With a callback set, ``run`` feeds the trace's ``Event``
views through ``process``.

``EpochEngine`` is the common base of the three sampling engines: per-thread
epochs, new-sample flags and one access path.  An access is handed to the
histories only if ``AccessHistories.will_check`` says it will be checked, so
an unchecked access costs O(1) and never builds its O(T) timestamp.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, List, Optional, Sequence

from ..history import SAMPLED_ONLY, AccessHistories, RaceReport
from ..metrics import RunMetrics
from ..trace import ACQ, REL, Event, Trace

SnapshotHook = Callable[[Event, List[int]], None]

_HANDLERS = ("_acquire", "_release", "_read", "_write")  # indexed by kind code


class Engine:
    """Base class; subclasses implement the four handlers and ``_effective``."""

    name = "base"

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
        self.num_locks = num_locks
        self.num_vars = num_vars
        self.mode = mode
        self.on_event = on_event
        self.debug = debug
        self.histories = AccessHistories(num_vars, num_threads, mode)
        self.metrics = RunMetrics(num_threads=num_threads)
        self.reports: List[RaceReport] = []
        self._event: Optional[Event] = None  # the event ``process`` is handling

    # -- handlers: (index, thread, target, marked) ---------------------------

    def _acquire(self, index: int, thread: int, lock: int, marked: bool) -> None:
        raise NotImplementedError

    def _release(self, index: int, thread: int, lock: int, marked: bool) -> None:
        raise NotImplementedError

    def _read(self, index: int, thread: int, var: int, marked: bool) -> None:
        raise NotImplementedError

    def _write(self, index: int, thread: int, var: int, marked: bool) -> None:
        raise NotImplementedError

    def _effective(self, thread: int) -> List[int]:
        """Thread clock with the own component replaced by the current epoch."""
        raise NotImplementedError

    # -- driver -------------------------------------------------------------

    def process(self, ev: Event) -> List[RaceReport]:
        """Handle one event; returns the races it reports."""
        m = self.metrics
        code = ev.kind.code
        m.events_total += 1
        if code == ACQ:
            m.acquires_total += 1
        elif code == REL:
            m.releases_total += 1
        else:
            m.accesses_total += 1
            if ev.marked:
                m.accesses_sampled += 1
        before = len(self.reports)
        self._event = ev
        getattr(self, _HANDLERS[code])(ev.index, ev.thread, ev.target, ev.marked)
        if code != REL:  # releases emit mid-handler, at the timestamp point
            self._emit(ev.thread)
        new_reports = self.reports[before:]
        m.race_count += len(new_reports)
        m.race_checks = self.histories.race_checks
        return new_reports

    def run(self, tr: Trace) -> List[RaceReport]:
        if self.on_event is not None:
            for ev in tr.events:
                self.process(ev)
            return self.reports
        before = len(self.reports)
        handlers = tuple(getattr(self, name) for name in _HANDLERS)
        for i, k, t, x, mk in zip(count(1), tr.kinds, tr.threads, tr.targets, tr.marks):
            handlers[k](i, t, x, mk)
        m = self.metrics
        n, acquires, releases = len(tr), tr.kinds.count(ACQ), tr.kinds.count(REL)
        m.events_total += n
        m.acquires_total += acquires
        m.releases_total += releases
        m.accesses_total += n - acquires - releases
        m.accesses_sampled += tr.sample_size
        m.race_count += len(self.reports) - before
        m.race_checks = self.histories.race_checks
        return self.reports

    def racy_set(self) -> set:
        return {(r.event_index, r.kind) for r in self.reports}

    def _emit(self, thread: int) -> None:
        if self.on_event is not None:
            self.on_event(self._event, self._effective(thread))


class EpochEngine(Engine):
    """Epochs, new-sample flags and the access path of the sampling engines.

    Subclasses implement the acquire and release timestamping and
    ``_clock(thread)``, a fresh copy of the thread's clock.
    """

    def __init__(self, num_threads, num_locks, num_vars, **kwargs):
        super().__init__(num_threads, num_locks, num_vars, **kwargs)
        self.epochs = [1] * num_threads
        self.new_sample = [False] * num_threads

    def _clock(self, thread: int) -> List[int]:
        raise NotImplementedError

    def _effective(self, thread: int) -> List[int]:
        eff = self._clock(thread)
        eff[thread] = self.epochs[thread]
        return eff

    def _read(self, index, thread, var, marked):
        if self.histories.will_check(thread, var, False, marked):
            self._check(index, thread, var, False, marked)

    def _write(self, index, thread, var, marked):
        if self.histories.will_check(thread, var, True, marked):
            self._check(index, thread, var, True, marked)

    def _check(self, index, thread, var, is_write, marked) -> None:
        reports = self.histories.check_and_update(
            index, thread, var, is_write, self._effective(thread), self.epochs[thread], marked
        )
        if marked:
            self.new_sample[thread] = True
        if reports:
            self.reports.extend(reports)

    def _end_epoch(self, thread: int) -> None:
        """At a sample-consuming release, after the engine folded the epoch:
        emit the release's timestamp, then start the thread's next epoch."""
        self._emit(thread)
        self.epochs[thread] += 1
        self.metrics.epoch_increments += 1
        self.new_sample[thread] = False


def check_monotone(old: Sequence[int], new: Sequence[int], what: str) -> None:
    for a, b in zip(old, new):
        if b < a:
            raise AssertionError(f"{what} clock decreased: {old} -> {new}")
