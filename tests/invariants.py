"""The engines' invariants, checked from outside after every event.

``checked_engine(token, tr, **kwargs)`` builds the engine ``create_engine``
would, with a checker as its ``on_event`` hook.  The checker hands each
event on to the ``on_event`` hook given in ``kwargs``, if any, and checks
the whole engine state after every event and once more when ``run``
returns:

* no thread clock and no lock clock has decreased since the last check.
  For ``orderedlist`` a thread's clock is its list with the pending epoch
  folded in, and a lock's clock is its view with the lock epoch as the last
  releaser's component.  The threads' freshness clocks must not decrease
  either.  A lock's freshness clock may: an acquire skipped on the last
  releaser's component joins none of the others, and the acquirer's
  release replaces them with its own;
* uclock: no lock records a thread's freshness above the thread's own,
  ``u_locks[l][t] <= u_threads[t][t]``, so a join never moves ``ut[t]``;
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
        self.trace = None  # the trace ``run`` was last called with
        self.guarded = isinstance(engine, (UclockEngine, OrderedListEngine))
        self.clocks = _clocks(engine)
        self.skipped = engine.metrics.acquires_skipped
        self.releaser = {}  # lock -> the thread that released it last

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
        self.check(where)

    def check(self, where: str) -> None:
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
        checker.trace = trace
        reports = run(trace)
        checker.check("after run")
        return reports

    engine.run = checked_run
    return engine
