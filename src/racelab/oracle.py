"""The specification the engines are checked against, in plain vector clocks.

Everything here is computed from first principles with textbook vector
clocks (Fidge 1988; Mattern 1989), sharing nothing with the engines' epochs,
freshness clocks or lists.  The oracle reads a trace's columns (``threads``,
``kinds``, ``targets``) and its marks, which are its only sample set, in one
streaming pass per question:

* ``vector_clocks`` yields each event's happens-before clock C_e.  Every
  event ticks its own thread's component, an acquire joins the lock's clock
  and a release stores a copy of its thread's.  C_e[u] is the local position
  (1-based) of thread u's latest event that happens-before e, or 0, so an
  event of thread u at local position p happens-before e iff p <= C_e[u].
* ``racy_events`` replays last-access summaries (the histories every engine
  keeps), each a (thread, local position) pair, and decides every check on
  C_e.
* ``timestamps`` yields each event's declarative timestamp, the value an
  engine's ``on_event`` hook must report for it.  A thread's local time is
  one plus its ticks before the event: every release ticks for the full
  detector, and only the first release after a marked access for the
  sampling engines.  Component u is the local time of u's latest recorded
  event that happens-before e (0 if none), where the full detector records
  every event and the sampling engines the marked accesses; the event's own
  component is its own local time, which makes it the effective timestamp.

Memory is O(n + T(T+L) + V*T) for n events, T threads, L locks and V
variables: no n-by-n or n-by-T table is ever built, so traces of any length
can be checked whole.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, List, Optional, Set, Tuple

from .history import EXTENDED, READ_WRITE, SAMPLED_ONLY, WRITE_READ, WRITE_WRITE
from .trace import ACQ, READ, REL, WRITE, Trace


def vector_clocks(tr: Trace) -> Iterator[List[int]]:
    """Yield each event's vector clock C_e, in trace order.

    The list yielded is the acting thread's live clock: it is valid until
    the next event and must not be mutated; copy it to keep it.
    """
    T = tr.num_threads
    clocks = [[0] * T for _ in range(T)]
    # Under the locking discipline, which every validated way in checks, a
    # lock's release happens-after its previous release, so the clock of the
    # last release is the join of them all.
    released: List[Optional[List[int]]] = [None] * tr.num_locks
    for t, k, x in zip(tr.threads, tr.kinds, tr.targets):
        c = clocks[t]
        c[t] += 1
        if k == ACQ:
            r = released[x]
            if r is not None:
                for u, p in enumerate(r):
                    if p > c[u]:
                        c[u] = p
        elif k == REL:
            released[x] = c.copy()
        yield c


def timestamps(tr: Trace, full: bool = False) -> Iterator[List[int]]:
    """Yield each event's declarative effective timestamp, as a fresh list.

    With ``full`` it is the full detector's causal timestamp (djitp's),
    otherwise the sampling timestamp every sampling-family engine reports.
    A thread's components other than its own change only where its clock
    does, at its acquires, so its row is recomputed there.
    """
    T = tr.num_threads
    local = [1] * T
    # A recorded event since the thread's last tick: its next release ticks.
    pending = [False] * T
    # latest[u][p]: the local time of u's latest recorded event at local
    # position <= p, 0 if none; one entry per event of u, after a leading 0.
    latest: List[List[int]] = [[0] for _ in range(T)]
    rows = [[0] * T for _ in range(T)]
    for t, k, marked, c in zip(tr.threads, tr.kinds, tr.marks, vector_clocks(tr)):
        if full or marked:
            latest[t].append(local[t])
            pending[t] = True
        else:
            latest[t].append(latest[t][-1])
        if k == ACQ:
            rows[t] = [times[p] for times, p in zip(latest, c)]
        row = rows[t]
        row[t] = local[t]
        yield row.copy()
        if k == REL and pending[t]:
            local[t] += 1
            pending[t] = False


def racy_events(tr: Trace, mode: str = SAMPLED_ONLY) -> Set[Tuple[int, str]]:
    """Racy (event index, kind) pairs under last-access-summary semantics.

    Summaries record the last sampled write and the last sampled read per
    thread of each variable, as the engines' histories do; each check decides
    orderedness on the current event's vector clock.  In extended mode the
    first unmarked access of a thread after a summary gained a new sampled
    event it could race with (a write, for a read; any, for a write) is
    checked as well, without updating the summaries.
    """
    if mode not in (SAMPLED_ONLY, EXTENDED):
        raise ValueError(f"unknown mode {mode!r}")
    extended = mode == EXTENDED
    V, T = tr.num_vars, tr.num_threads
    last_write: List[Optional[Tuple[int, int]]] = [None] * V  # (thread, position)
    last_read = [[0] * T for _ in range(V)]  # position per thread, 0 for none
    gen_r = [0] * V
    gen_w = [0] * V
    seen_r = [[0] * T for _ in range(V)]
    seen_w = [[0] * T for _ in range(V)]
    out: Set[Tuple[int, str]] = set()

    for i, t, k, x, marked, c in zip(
        count(1), tr.threads, tr.kinds, tr.targets, tr.marks, vector_clocks(tr)
    ):
        if k == WRITE:
            if not (marked or (extended and seen_w[x][t] < gen_r[x] + gen_w[x])):
                continue
            w = last_write[x]
            if w is not None and w[1] > c[w[0]]:
                out.add((i, WRITE_WRITE))
            if any(p > c[u] for u, p in enumerate(last_read[x])):
                out.add((i, READ_WRITE))
            if marked:
                last_write[x] = (t, c[t])
                gen_w[x] += 1
            seen_w[x][t] = gen_r[x] + gen_w[x]
        elif k == READ:
            if not (marked or (extended and seen_r[x][t] < gen_w[x])):
                continue
            w = last_write[x]
            if w is not None and w[1] > c[w[0]]:
                out.add((i, WRITE_READ))
            if marked:
                last_read[x][t] = c[t]
                gen_r[x] += 1
            seen_r[x][t] = gen_w[x]
    return out


def racy_events_full(tr: Trace) -> Set[Tuple[int, str]]:
    """Reference racy set for the full detector: every access is recorded."""
    every_access = bytes(k >= READ for k in tr.kinds)
    full = Trace(
        tr.threads, tr.kinds, tr.targets, every_access,
        tr.num_threads, tr.num_locks, tr.num_vars,
    )
    return racy_events(full, SAMPLED_ONLY)
