"""The engines' invariants, checked from outside after every event.

``checked_engine(token, tr, **kwargs)`` builds the engine ``create_engine``
would, with a checker as its ``on_event`` hook.  The checker hands each
event on to the ``on_event`` hook given in ``kwargs``, if any, and checks
the whole engine state after every event and once more when ``run``
returns:

* every report the event appended compares greater than the report before
  it, so the engine's reports increase strictly by ``(event index,
  variable, kind)``: sorted and distinct, as ``render_reports`` assumes;
* no thread clock and no lock clock has decreased since the last check.
  For ``orderedlist`` a thread's clock is its list with the pending epoch
  folded in, and a lock's clock is its view with the lock epoch as the last
  releaser's component.  The threads' freshness clocks must not decrease
  either.  A lock's freshness clock may: an acquire skipped on the last
  releaser's component joins none of the others, and the acquirer's
  release replaces them with its own;
* uclock: no lock records a thread's freshness above the thread's own,
  ``u_locks[l][t] <= u_threads[t][t]``, so a join never moves ``ut[t]``;
* uclock: for the thread that acted (every thread after ``run``), every
  lock and every s, ``u_threads[t][s] >= u_locks[l][s]`` implies
  ``c_threads[t][s] >= c_locks[l][s]``, the premise of the join that takes
  only the components the lock is fresher on;
* orderedlist: each thread's list has ``refs == 1 +`` the number of lock
  views that are that list;
* uclock and orderedlist: an acquire of a lock whose last releaser is the
  acquirer is counted in ``acquires_skipped``.  The hook fires before a
  release's publish, so the checker notes the releaser itself.

A broken invariant raises ``AssertionError`` naming the event.
"""

from __future__ import annotations

from operator import le

from racelab.engines import create_engine
from racelab.engines.orderedlist import OrderedListEngine
from racelab.engines.uclock import UclockEngine
from racelab.trace import ACQ, REL


def _stale(ut, ul, ct, cl) -> bool:
    """One component on which the thread is as fresh as the lock but behind it."""
    return ut >= ul and ct < cl


def _clocks(engine) -> list:
    """``(name, clock)`` for every clock that must never decrease."""
    out = []
    if isinstance(engine, OrderedListEngine):
        for t, lst in enumerate(engine.o_threads):
            clock = lst.snapshot()
            if engine.pending_local[t]:
                clock[t] = engine.pending_local[t]
            out.append((f"thread {t} clock", clock))
        for lock, view in enumerate(engine.lock_views):
            clock = view.snapshot()
            clock[engine.last_releaser[lock]] = engine.lock_epoch[lock]
            out.append((f"lock {lock} clock", clock))
    else:
        out += ((f"thread {t} clock", list(c)) for t, c in enumerate(engine.c_threads))
        out += ((f"lock {lock} clock", list(c)) for lock, c in enumerate(engine.c_locks))
    if isinstance(engine, (UclockEngine, OrderedListEngine)):
        out += ((f"thread {t} freshness", list(u)) for t, u in enumerate(engine.u_threads))
    return out


class _Checker:
    def __init__(self, engine, hook):
        self.engine = engine
        self.hook = hook
        self.start(None)
        self.guarded = isinstance(engine, (UclockEngine, OrderedListEngine))
        self.clocks = _clocks(engine)
        self.skipped = engine.metrics.acquires_skipped
        self.releaser = {}  # lock -> the thread that released it last

    def start(self, trace) -> None:
        """Begin a run of ``trace``, before any report."""
        self.trace = trace
        self.reports, self.seen, self.last = None, 0, (0,)  # (0,) sorts first

    def check_order(self, where: str) -> None:
        """The reports appended since the last event follow the last one
        seen.  ``stream`` starts a new report list each block."""
        reports = self.engine.reports
        if reports is not self.reports:
            self.reports, self.seen = reports, 0
        for report in reports[self.seen:]:
            assert report > self.last, f"{where}: report {report} after {self.last}"
            self.last = report
        self.seen = len(reports)

    def __call__(self, index, eff):
        if self.hook is not None:
            self.hook(index, eff)
        i = index - 1
        kind, thread, target = self.trace.kinds[i], self.trace.threads[i], self.trace.targets[i]
        where = f"e{index}"
        skipped = self.engine.metrics.acquires_skipped
        if self.guarded and kind == ACQ and self.releaser.get(target) == thread:
            assert skipped == self.skipped + 1, (
                f"{where}: thread {thread} re-acquired lock {target} without a skip"
            )
        if kind == REL:
            self.releaser[target] = thread
        self.check_order(where)
        self.check(where, (thread,))

    def check(self, where: str, threads) -> None:
        engine = self.engine
        clocks = _clocks(engine)
        for (name, old), (_, new) in zip(self.clocks, clocks):
            assert all(map(le, old, new)), f"{where}: {name} decreased: {old} -> {new}"
        self.clocks = clocks
        self.skipped = engine.metrics.acquires_skipped
        if isinstance(engine, UclockEngine):
            own = [u[t] for t, u in enumerate(engine.u_threads)]
            for lock, u in enumerate(engine.u_locks):
                assert all(map(le, u, own)), (
                    f"{where}: lock {lock} freshness {u} above the threads' own {own}"
                )
            for t in threads:
                ut, ct = engine.u_threads[t], engine.c_threads[t]
                for lock, (ul, cl) in enumerate(zip(engine.u_locks, engine.c_locks)):
                    assert not any(map(_stale, ut, ul, ct, cl)), (
                        f"{where}: thread {t} as fresh as lock {lock} but behind its clock"
                    )
        if isinstance(engine, OrderedListEngine):
            for t, lst in enumerate(engine.o_threads):
                views = sum(v is lst for v in engine.lock_views)
                assert lst.refs == 1 + views, f"{where}: thread {t}: refs {lst.refs}, {views} views"


def checked_engine(token: str, tr, **kwargs):
    """``create_engine(token, tr, **kwargs)`` under the invariant checker."""
    engine = create_engine(token, tr, **kwargs)
    checker = _Checker(engine, engine.on_event)
    engine.on_event = checker
    run = engine.run

    def checked_run(trace):
        checker.start(trace)
        reports = run(trace)
        checker.check("after run", range(engine.num_threads))
        return reports

    engine.run = checked_run
    return engine
