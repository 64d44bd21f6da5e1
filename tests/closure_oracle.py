"""The oracle's definitions, over the happens-before closure.

These are the defining formulas, computed by brute force: the tests check
``racelab.oracle``'s vector clocks against them, and the timestamp, freshness
and clock-work properties on them.  Everything reads a trace's columns
(``threads``, ``kinds``, ``targets``) and its marks, which are its only
sample set:

* ``hb_closure`` builds the full reachability relation from program-order
  edges plus an edge from every release of a lock to every later acquire of
  the same lock (predecessor bitsets, one per event).
* ``timestamp_tables`` evaluates the defining max formulas for the local
  times and the causal and sampling timestamps; ``declarative_timestamps``
  adds the evolution counter and the freshness vectors, plus the
  total-clock-work scalar obtained by abstractly replaying the plain
  sampling algorithm.
* ``racy_events`` replays last-access summaries (the histories every engine
  keeps) and decides each check directly on the closure.

The closure is quadratic in the trace length and the tables hold n*T
values, so these run on small traces only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Container, Dict, List, Optional, Set, Tuple

from racelab.history import EXTENDED, READ_WRITE, SAMPLED_ONLY, WRITE_READ, WRITE_WRITE
from racelab.trace import ACQ, READ, REL, WRITE, Trace


class HbClosure:
    """Reachability of the happens-before partial order, reflexive.

    ``preds[i]`` is a bitset over 0-based positions: bit j set means event
    j+1 happens-before event i+1.  The public API takes 1-based event
    indices, the numbering race reports use.
    """

    def __init__(self, n: int, preds: List[int]):
        self.n = n
        self.preds = preds

    def ordered(self, i: int, j: int) -> bool:
        """True iff event i happens-before event j (1-based, reflexive)."""
        if i == j:
            return True
        return bool((self.preds[j - 1] >> (i - 1)) & 1)


def hb_closure(tr: Trace) -> HbClosure:
    preds: List[int] = []
    thread_last: Dict[int, int] = {}
    release_acc: Dict[int, int] = {}
    for pos, t, k, x in zip(count(), tr.threads, tr.kinds, tr.targets):
        bits = thread_last.get(t, 0) | (1 << pos)
        if k == ACQ:
            bits |= release_acc.get(x, 0)
        elif k == REL:
            release_acc[x] = release_acc.get(x, 0) | bits
        preds.append(bits)
        thread_last[t] = bits
    return HbClosure(len(preds), preds)


@dataclass
class TimestampTables:
    """Per-event declarative local times and timestamps: ``ft`` counts every
    release (the causal timestamp, the full detector's), ``smp`` only the
    first release after a sampled event (the sampling timestamp)."""

    lt_ft: List[int]
    ct_ft: List[List[int]]
    lt_smp: List[int]
    ct_smp: List[List[int]]

    def ct_smp_effective(self, idx: int, thread: int) -> List[int]:
        """Declarative sampling timestamp with the own component as local time."""
        eff = list(self.ct_smp[idx - 1])
        eff[thread] = self.lt_smp[idx - 1]
        return eff


@dataclass
class OracleTables(TimestampTables):
    """The timestamp tables plus freshness values and the clock-work scalar.

    ``vt``/``u`` follow the defining formulas (evolution of the declarative
    sampling timestamp along each thread, counted from the all-zero initial
    clock, and its per-thread maxima over happens-before predecessors).
    ``vt_replay``/``u_replay`` count changes of the plain sampling
    algorithm's thread clocks instead, which fold local times at releases;
    these are the quantities engine freshness clocks track exactly.
    """

    vt: List[int]
    u: List[List[int]]
    vt_replay: List[int]
    u_replay: List[List[int]]
    vtwork: int


def rel_after_positions(tr: Trace) -> Set[int]:
    """Releases that are the first in their thread after some marked access."""
    out: Set[int] = set()
    flag = [False] * tr.num_threads
    for i, t, k, m in zip(count(1), tr.threads, tr.kinds, tr.marks):
        if m and k >= READ:
            flag[t] = True
        elif k == REL and flag[t]:
            out.add(i)
            flag[t] = False
    return out


def _per_thread_max(
    hb: HbClosure,
    thread_masks: List[int],
    values: List[int],
    restrict_mask: Optional[int] = None,
) -> List[List[int]]:
    """For each event, per thread: value of the latest qualifying HB-predecessor.

    Relies on the values being non-decreasing along each thread, so the
    maximum over HB-predecessors is attained at the highest position.
    """
    n = hb.n
    out: List[List[int]] = []
    for pos in range(n):
        bits = hb.preds[pos]
        if restrict_mask is not None:
            bits &= restrict_mask
        row = []
        for mask in thread_masks:
            m = bits & mask
            row.append(values[m.bit_length() - 1] if m else 0)
        out.append(row)
    return out


def _local_times(tr: Trace, ticks: Container[int]) -> List[int]:
    """Per event: one plus the events of ``ticks`` (1-based indices) that
    precede it in its thread."""
    out: List[int] = []
    clock = [1] * tr.num_threads
    for i, t in zip(count(1), tr.threads):
        out.append(clock[t])
        if i in ticks:
            clock[t] += 1
    return out


def _tables(tr: Trace, hb: HbClosure) -> Tuple[TimestampTables, List[int], Set[int]]:
    """The timestamp tables, with the per-thread position bitsets and the
    sample-consuming releases they were built from."""
    thread_masks = [0] * tr.num_threads
    sampled_mask = 0
    for pos, t, m in zip(count(), tr.threads, tr.marks):
        thread_masks[t] |= 1 << pos
        if m:
            sampled_mask |= 1 << pos
    rel_after = rel_after_positions(tr)
    # Local times: releases (sample-consuming ones, for ``smp``) performed
    # before the event in its thread, plus one.
    lt_ft = _local_times(tr, {i for i, k in zip(count(1), tr.kinds) if k == REL})
    lt_smp = _local_times(tr, rel_after)
    tables = TimestampTables(
        lt_ft=lt_ft,
        ct_ft=_per_thread_max(hb, thread_masks, lt_ft),
        lt_smp=lt_smp,
        ct_smp=_per_thread_max(hb, thread_masks, lt_smp, restrict_mask=sampled_mask),
    )
    return tables, thread_masks, rel_after


def timestamp_tables(tr: Trace, hb: Optional[HbClosure] = None) -> TimestampTables:
    """The local-time and timestamp tables alone, what per-event timestamp
    comparisons read; ``declarative_timestamps`` adds the freshness values."""
    if hb is None:
        hb = hb_closure(tr)
    return _tables(tr, hb)[0]


def declarative_timestamps(tr: Trace, hb: Optional[HbClosure] = None) -> OracleTables:
    """``timestamp_tables`` plus the evolution counters, freshness vectors and
    clock work."""
    if hb is None:
        hb = hb_closure(tr)
    base, thread_masks, rel_after = _tables(tr, hb)
    T = tr.num_threads

    # Evolution counter along each thread's declarative clock, from all-zero.
    vt: List[int] = []
    prev_ct = [[0] * T] * T
    running = [0] * T
    for t, cur in zip(tr.threads, base.ct_smp):
        running[t] += sum(a != b for a, b in zip(prev_ct[t], cur))
        vt.append(running[t])
        prev_ct[t] = cur

    vt_replay, vtwork = _replay_clock_changes(tr, rel_after)
    return OracleTables(
        **vars(base),
        vt=vt,
        u=_per_thread_max(hb, thread_masks, vt),
        vt_replay=vt_replay,
        u_replay=_per_thread_max(hb, thread_masks, vt_replay),
        vtwork=vtwork,
    )


def _replay_clock_changes(tr: Trace, rel_after: Set[int]) -> Tuple[List[int], int]:
    """Abstractly replay the plain sampling algorithm, counting every
    component-level change of any thread or lock clock."""
    T = tr.num_threads
    c_threads = [[0] * T for _ in range(T)]
    c_locks = [[0] * T for _ in range(tr.num_locks)]
    epochs = [1] * T
    changes = [0] * T
    lock_changes = 0
    vt_replay: List[int] = []
    for i, t, k, x in zip(count(1), tr.threads, tr.kinds, tr.targets):
        if k == ACQ:
            ct, cl = c_threads[t], c_locks[x]
            for j in range(T):
                if cl[j] > ct[j]:
                    ct[j] = cl[j]
                    changes[t] += 1
        elif k == REL:
            ct = c_threads[t]
            if i in rel_after:
                ct[t] = epochs[t]
                epochs[t] += 1
                changes[t] += 1
            cl = c_locks[x]
            for j in range(T):
                if cl[j] != ct[j]:
                    cl[j] = ct[j]
                    lock_changes += 1
        vt_replay.append(changes[t])
    return vt_replay, sum(changes) + lock_changes


def clock_work(tr: Trace) -> int:
    """Total component-level clock changes of the plain sampling algorithm.

    The yardstick for instance optimality: any timestamping algorithm must
    perform at least this many clock writes on the trace.
    """
    return _replay_clock_changes(tr, rel_after_positions(tr))[1]


def racy_events(
    tr: Trace, mode: str = SAMPLED_ONLY, hb: Optional[HbClosure] = None
) -> Set[Tuple[int, str]]:
    """Racy (event index, kind) pairs under last-access-summary semantics.

    Summaries record the last sampled write and the last sampled read per
    thread of each variable, as the engines' histories do; each check decides
    orderedness directly on the happens-before closure.  In extended mode the
    first unmarked access of a thread after a summary gained a new sampled
    event it could race with (a write, for a read; any, for a write) is
    checked as well, without updating the summaries.
    """
    if mode not in (SAMPLED_ONLY, EXTENDED):
        raise ValueError(f"unknown mode {mode!r}")
    if hb is None:
        hb = hb_closure(tr)
    extended = mode == EXTENDED
    V, T = tr.num_vars, tr.num_threads
    last_write: List[Optional[int]] = [None] * V
    last_read: List[List[Optional[int]]] = [[None] * T for _ in range(V)]
    gen_r = [0] * V
    gen_w = [0] * V
    seen_r = [[0] * T for _ in range(V)]
    seen_w = [[0] * T for _ in range(V)]
    out: Set[Tuple[int, str]] = set()

    for i, t, k, x, marked in zip(count(1), tr.threads, tr.kinds, tr.targets, tr.marks):
        if k == WRITE:
            if not (marked or (extended and seen_w[x][t] < gen_r[x] + gen_w[x])):
                continue
            w = last_write[x]
            if w is not None and not hb.ordered(w, i):
                out.add((i, WRITE_WRITE))
            if any(r is not None and not hb.ordered(r, i) for r in last_read[x]):
                out.add((i, READ_WRITE))
            if marked:
                last_write[x] = i
                gen_w[x] += 1
            seen_w[x][t] = gen_r[x] + gen_w[x]
        elif k == READ:
            if not (marked or (extended and seen_r[x][t] < gen_w[x])):
                continue
            w = last_write[x]
            if w is not None and not hb.ordered(w, i):
                out.add((i, WRITE_READ))
            if marked:
                last_read[x][t] = i
                gen_r[x] += 1
            seen_r[x][t] = gen_w[x]
    return out


def racy_events_full(tr: Trace, hb: Optional[HbClosure] = None) -> Set[Tuple[int, str]]:
    """Reference racy set for the full detector: every access is recorded."""
    every_access = bytes(k >= READ for k in tr.kinds)
    full = Trace(
        tr.threads, tr.kinds, tr.targets, every_access,
        tr.num_threads, tr.num_locks, tr.num_vars,
    )
    return racy_events(full, SAMPLED_ONLY, hb=hb)
