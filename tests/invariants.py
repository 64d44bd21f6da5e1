"""The engines' invariants, checked from outside after every event.

``checked_engine(token, tr, **kwargs)`` builds the engine ``create_engine``
would and ``observe``s it with a checker, which checks the whole engine
state after every event and once more when ``run`` returns.  A test may
observe the engine again; its hook runs after the checker's.  The checks:

* every report the event appended compares greater than the report before
  it, so the engine's reports increase strictly by ``(event index,
  variable, kind)``: sorted and distinct, as ``render_reports`` assumes;
* no thread clock and no lock clock has decreased since the last check.
  For ``orderedlist`` a thread's clock is its list, and a lock's clock is
  the view of its record with the record's epoch as the releaser's
  component: the releaser writes its own entry in place after the
  release.  The threads' freshness clocks must not decrease either.  A
  lock's freshness clock may: an acquire skipped on the last releaser's
  component joins none of the others, and the acquirer's release replaces
  them with its own;
* a release of lock l by thread t published what t holds after it:
  sampling and djitp ``c_locks[l] == c_threads[t]``; uclock that, with
  ``last_releaser[l] == t`` and ``u_locks[l][t] == u_threads[t][t]`` (not
  the whole freshness row: a join may raise another component's freshness
  without changing the clock, and the copy is then skipped); orderedlist
  the record ``published[l] == (o_threads[t], t, u_threads[t][t],
  epochs[t] - 1)``: the thread's list itself as the view, the releaser,
  its freshness and its last folded epoch;
* uclock: no lock records a thread's freshness above the thread's own,
  ``u_locks[l][t] <= u_threads[t][t]``, so a join never moves ``ut[t]``;
* uclock: for the thread that acted (every thread after ``run``), every
  lock and every s, ``u_threads[t][s] >= u_locks[l][s]`` implies
  ``c_threads[t][s] >= c_locks[l][s]``, the premise of the join that takes
  only the components the lock is fresher on;
* orderedlist: each thread's list has ``refs == 1 +`` the number of lock
  records whose view is that list;
* orderedlist: the acting thread's list (after ``run``, every thread's
  list and every lock's view) links each of the other ``T - 1`` threads'
  entries once and never its owner's: the thread's own, or the last
  releaser's for a view;
* a thread's own component is its last folded epoch, ``rows[t][t] ==
  epochs[t] - 1``;
* ``engine.rows[t]`` is thread t's live clock: ``o_threads[t].times`` for
  orderedlist, ``c_threads[t]`` for the others;
* the bottom row every lock starts on (``c_locks`` and uclock's
  ``u_locks``; orderedlist's bottom list) is still all zeros, so no
  release wrote a lock row in place;
* uclock and orderedlist: an acquire of a lock whose last releaser is the
  acquirer is counted in ``acquires_skipped``.

A broken invariant raises ``AssertionError`` naming the event.
"""

from __future__ import annotations

from operator import le

from racelab.engines import create_engine, observe
from racelab.engines.orderedlist import OrderedListEngine
from racelab.engines.uclock import UclockEngine
from racelab.trace import ACQ, REL


def _releaser(engine, lock) -> int:
    """The last thread to release ``lock`` in uclock or orderedlist."""
    if isinstance(engine, OrderedListEngine):
        return engine.published[lock][1]
    return engine.last_releaser[lock]


def _shown(engine, record) -> str:
    """An orderedlist lock record, its view named by the thread whose list it is."""
    view, releaser, freshness, epoch = record
    owner = next((f"thread {t}'s list" for t, lst in enumerate(engine.o_threads) if lst is view),
                 "no thread's list")
    return f"({owner}, releaser {releaser}, freshness {freshness}, epoch {epoch})"


def _stale(ut, ul, ct, cl) -> bool:
    """One component on which the thread is as fresh as the lock but behind it."""
    return ut >= ul and ct < cl


def _bottoms(engine) -> list:
    """The rows every lock starts on, before any event: one per clock kind."""
    if isinstance(engine, OrderedListEngine):
        return [view.times for view, *_ in engine.published[:1]]
    out = engine.c_locks[:1]
    if isinstance(engine, UclockEngine):
        out += engine.u_locks[:1]
    return out


def _live_rows(engine) -> list:
    """What ``engine.rows`` must hold: each thread's live clock."""
    if isinstance(engine, OrderedListEngine):
        return [lst.times for lst in engine.o_threads]
    return engine.c_threads


def _clocks(engine) -> list:
    """``(name, clock)`` for every clock that must never decrease."""
    out = []
    if isinstance(engine, OrderedListEngine):
        out += ((f"thread {t} clock", lst.snapshot()) for t, lst in enumerate(engine.o_threads))
        for lock, (view, releaser, _, epoch) in enumerate(engine.published):
            clock = view.snapshot()
            clock[releaser] = epoch
            out.append((f"lock {lock} clock", clock))
    else:
        out += ((f"thread {t} clock", list(c)) for t, c in enumerate(engine.c_threads))
        out += ((f"lock {lock} clock", list(c)) for lock, c in enumerate(engine.c_locks))
    if isinstance(engine, (UclockEngine, OrderedListEngine)):
        out += ((f"thread {t} freshness", list(u)) for t, u in enumerate(engine.u_threads))
    return out


class _Checker:
    def __init__(self, engine):
        self.engine = engine
        self.start(None)
        self.guarded = isinstance(engine, (UclockEngine, OrderedListEngine))
        self.clocks = _clocks(engine)
        self.skipped = engine.metrics.acquires_skipped
        self.bottoms = _bottoms(engine)

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
        i = index - 1
        kind, thread, target = self.trace.kinds[i], self.trace.threads[i], self.trace.targets[i]
        where = f"e{index}"
        engine = self.engine
        skipped = engine.metrics.acquires_skipped
        if self.guarded and kind == ACQ and _releaser(engine, target) == thread:
            assert skipped == self.skipped + 1, (
                f"{where}: thread {thread} re-acquired lock {target} without a skip"
            )
        if kind == REL:
            self.check_release(where, thread, target)
        self.check_order(where)
        self.check(where, (thread,))

    def check_release(self, where: str, t: int, lock: int) -> None:
        """The release of ``lock`` by thread ``t`` handed the lock what the
        thread holds after it."""
        engine = self.engine
        if isinstance(engine, OrderedListEngine):
            got = engine.published[lock]
            want = (engine.o_threads[t], t, engine.u_threads[t][t], engine.epochs[t] - 1)
            assert got == want, (
                f"{where}: thread {t}'s release published {_shown(engine, got)} to lock {lock}, "
                f"not {_shown(engine, want)}"
            )
            return
        published = {"clock": (engine.c_locks[lock], engine.c_threads[t])}
        if isinstance(engine, UclockEngine):
            published["own freshness"] = (engine.u_locks[lock][t], engine.u_threads[t][t])
            published["releaser"] = (engine.last_releaser[lock], t)
        for name, (got, want) in published.items():
            assert got == want, (
                f"{where}: thread {t}'s release published {name} {got} to lock {lock}, not {want}"
            )

    def check(self, where: str, threads) -> None:
        engine = self.engine
        clocks = _clocks(engine)
        for (name, old), (_, new) in zip(self.clocks, clocks):
            assert all(map(le, old, new)), f"{where}: {name} decreased: {old} -> {new}"
        self.clocks = clocks
        self.skipped = engine.metrics.acquires_skipped
        for t, (row, live) in enumerate(zip(engine.rows, _live_rows(engine), strict=True)):
            assert row is live, f"{where}: rows[{t}] is not thread {t}'s live clock"
        for row in self.bottoms:
            assert not any(row), f"{where}: a lock's bottom row changed: {list(row)}"
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
        for t, (row, epoch) in enumerate(zip(engine.rows, engine.epochs)):
            assert row[t] == epoch - 1, f"{where}: thread {t}: own component {row[t]}, epoch {epoch}"
        if isinstance(engine, OrderedListEngine):
            for t, lst in enumerate(engine.o_threads):
                views = sum(view is lst for view, *_ in engine.published)
                assert lst.refs == 1 + views, f"{where}: thread {t}: refs {lst.refs}, {views} views"
            check_links(where, ((t, engine.o_threads[t]) for t in threads))


def _linked(lst) -> list:
    """The thread ids ``lst`` links, head first; a cycle stops the walk
    one entry past the list's width."""
    out, tid = [], lst._next[-1]
    while tid != -1 and len(out) <= len(lst.times):
        out.append(tid)
        tid = lst._next[tid]
    return out


def check_links(where: str, lists) -> None:
    """Each ``(owner, list)`` links every thread's entry but the owner's, once."""
    for owner, lst in lists:
        linked = _linked(lst)
        want = [s for s in range(len(lst.times)) if s != owner]
        assert sorted(linked) == want, f"{where}: owner {owner}'s list links {linked}"


def checked_engine(token: str, tr, **kwargs):
    """``create_engine(token, tr, **kwargs)``, observed by the invariant checker."""
    engine = create_engine(token, tr, **kwargs)
    checker = _Checker(engine)
    observe(engine, checker)
    run = engine.run

    def checked_run(trace):
        checker.start(trace)
        reports = run(trace)
        checker.check("after run", range(engine.num_threads))
        if isinstance(engine, OrderedListEngine):
            check_links("after run", ((lr, view) for view, lr, *_ in engine.published))
        return reports

    engine.run = checked_run
    return engine
