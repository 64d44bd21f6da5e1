"""Brute-force reference implementations for differential testing.

Everything here is computed from first principles over the happens-before
closure rather than with the engines' clock machinery:

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

The oracle is a test fixture, not an engine; it targets traces of at most a
few thousand events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .history import EXTENDED, READ_WRITE, SAMPLED_ONLY, WRITE_READ, WRITE_WRITE
from .trace import OpKind, Trace


class HbClosure:
    """Reachability of the happens-before partial order, reflexive.

    ``preds[i]`` is a bitset over 0-based positions: bit j set means event
    j+1 happens-before event i+1.  Event indices in the public API are
    1-based, matching ``Event.index``.
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
    n = len(tr.events)
    preds: List[int] = [0] * n
    thread_last: Dict[int, int] = {}
    release_acc: Dict[int, int] = {}
    for pos, ev in enumerate(tr.events):
        bits = thread_last.get(ev.thread, 0) | (1 << pos)
        if ev.kind is OpKind.ACQUIRE:
            bits |= release_acc.get(ev.target, 0)
        preds[pos] = bits
        if ev.kind is OpKind.RELEASE:
            release_acc[ev.target] = release_acc.get(ev.target, 0) | bits
        thread_last[ev.thread] = bits
    return HbClosure(n, preds)


def sampled_positions(tr: Trace, sampled: Optional[Iterable[int]] = None) -> Set[int]:
    """The sample set as 1-based event indices; defaults to the trace marks."""
    if sampled is None:
        return {ev.index for ev in tr.events if ev.marked}
    chosen = set(sampled)
    for idx in chosen:
        ev = tr.events[idx - 1]
        if not ev.is_access:
            raise ValueError(f"event {idx} is not an access event")
    return chosen


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


def rel_after_positions(tr: Trace, chosen: Set[int]) -> Set[int]:
    """Releases that are the first in their thread after some sampled event."""
    out: Set[int] = set()
    flag = [False] * tr.num_threads
    for ev in tr.events:
        if ev.is_access and ev.index in chosen:
            flag[ev.thread] = True
        elif ev.kind is OpKind.RELEASE and flag[ev.thread]:
            out.add(ev.index)
            flag[ev.thread] = False
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


def _thread_masks(tr: Trace) -> List[int]:
    """Per thread, the bitset of its events' 0-based positions."""
    masks = [0] * tr.num_threads
    for pos, ev in enumerate(tr.events):
        masks[ev.thread] |= 1 << pos
    return masks


def timestamp_tables(
    tr: Trace, sampled: Optional[Iterable[int]] = None, hb: Optional[HbClosure] = None
) -> TimestampTables:
    """The local-time and timestamp tables alone, what per-event timestamp
    comparisons read; ``declarative_timestamps`` adds the freshness values."""
    chosen = sampled_positions(tr, sampled)
    if hb is None:
        hb = hb_closure(tr)
    n = len(tr.events)
    T = tr.num_threads
    thread_masks = _thread_masks(tr)
    sampled_mask = 0
    for idx in chosen:
        sampled_mask |= 1 << (idx - 1)

    # Local times: releases performed before the event in its thread, plus one.
    lt_ft = [0] * n
    rel_count = [0] * T
    for pos, ev in enumerate(tr.events):
        lt_ft[pos] = rel_count[ev.thread] + 1
        if ev.kind is OpKind.RELEASE:
            rel_count[ev.thread] += 1

    rel_after = rel_after_positions(tr, chosen)
    lt_smp = [0] * n
    ra_count = [0] * T
    for pos, ev in enumerate(tr.events):
        lt_smp[pos] = ra_count[ev.thread] + 1
        if ev.index in rel_after:
            ra_count[ev.thread] += 1

    return TimestampTables(
        lt_ft=lt_ft,
        ct_ft=_per_thread_max(hb, thread_masks, lt_ft),
        lt_smp=lt_smp,
        ct_smp=_per_thread_max(hb, thread_masks, lt_smp, restrict_mask=sampled_mask),
    )


def declarative_timestamps(
    tr: Trace, sampled: Optional[Iterable[int]] = None, hb: Optional[HbClosure] = None
) -> OracleTables:
    """``timestamp_tables`` plus the evolution counters, freshness vectors and
    clock work."""
    chosen = sampled_positions(tr, sampled)
    if hb is None:
        hb = hb_closure(tr)
    base = timestamp_tables(tr, chosen, hb)
    n = len(tr.events)
    T = tr.num_threads
    thread_masks = _thread_masks(tr)

    # Evolution counter along each thread's declarative clock, from all-zero.
    vt = [0] * n
    prev_ct: List[Optional[List[int]]] = [None] * T
    running = [0] * T
    for pos, ev in enumerate(tr.events):
        before = prev_ct[ev.thread] or [0] * T
        cur = base.ct_smp[pos]
        running[ev.thread] += sum(1 for a, b in zip(before, cur) if a != b)
        vt[pos] = running[ev.thread]
        prev_ct[ev.thread] = cur

    u = _per_thread_max(hb, thread_masks, vt)

    vt_replay, vtwork = _replay_clock_changes(tr, chosen, rel_after_positions(tr, chosen))
    u_replay = _per_thread_max(hb, thread_masks, vt_replay)

    return OracleTables(
        **vars(base),
        vt=vt,
        u=u,
        vt_replay=vt_replay,
        u_replay=u_replay,
        vtwork=vtwork,
    )


def _replay_clock_changes(
    tr: Trace, chosen: Set[int], rel_after: Set[int]
) -> Tuple[List[int], int]:
    """Abstractly replay the plain sampling algorithm, counting every
    component-level change of any thread or lock clock."""
    T = tr.num_threads
    c_threads = [[0] * T for _ in range(T)]
    c_locks = [[0] * T for _ in range(tr.num_locks)]
    epochs = [1] * T
    changes = [0] * T
    lock_changes = 0
    vt_replay = [0] * len(tr.events)
    for pos, ev in enumerate(tr.events):
        t = ev.thread
        if ev.kind is OpKind.ACQUIRE:
            ct, cl = c_threads[t], c_locks[ev.target]
            for i in range(T):
                if cl[i] > ct[i]:
                    ct[i] = cl[i]
                    changes[t] += 1
        elif ev.kind is OpKind.RELEASE:
            ct = c_threads[t]
            if ev.index in rel_after:
                ct[t] = epochs[t]
                epochs[t] += 1
                changes[t] += 1
            cl = c_locks[ev.target]
            for i in range(T):
                if cl[i] != ct[i]:
                    cl[i] = ct[i]
                    lock_changes += 1
        vt_replay[pos] = changes[t]
    return vt_replay, sum(changes) + lock_changes


def clock_work(tr: Trace, sampled: Optional[Iterable[int]] = None) -> int:
    """Total component-level clock changes of the plain sampling algorithm.

    The yardstick for instance optimality: any timestamping algorithm must
    perform at least this many clock writes on the trace.
    """
    chosen = sampled_positions(tr, sampled)
    rel_after = rel_after_positions(tr, chosen)
    return _replay_clock_changes(tr, chosen, rel_after)[1]


def racy_events(
    tr: Trace,
    mode: str = SAMPLED_ONLY,
    sampled: Optional[Iterable[int]] = None,
    hb: Optional[HbClosure] = None,
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
    chosen = sampled_positions(tr, sampled)
    if hb is None:
        hb = hb_closure(tr)
    V, T = tr.num_vars, tr.num_threads
    last_write: List[Optional[int]] = [None] * V
    last_read: List[List[Optional[int]]] = [[None] * T for _ in range(V)]
    gen_r = [0] * V
    gen_w = [0] * V
    seen_r = [[0] * T for _ in range(V)]
    seen_w = [[0] * T for _ in range(V)]
    out: Set[Tuple[int, str]] = set()

    for ev in tr.events:
        if not ev.is_access:
            continue
        x, t, marked = ev.target, ev.thread, ev.index in chosen
        is_write = ev.kind is OpKind.WRITE
        if is_write:
            checked = marked or (
                mode == EXTENDED and seen_w[x][t] < gen_r[x] + gen_w[x]
            )
            if checked:
                w = last_write[x]
                if w is not None and not hb.ordered(w, ev.index):
                    out.add((ev.index, WRITE_WRITE))
                if any(
                    r is not None and not hb.ordered(r, ev.index)
                    for r in last_read[x]
                ):
                    out.add((ev.index, READ_WRITE))
            if marked:
                last_write[x] = ev.index
                gen_w[x] += 1
                seen_w[x][t] = gen_r[x] + gen_w[x]
            elif checked:
                seen_w[x][t] = gen_r[x] + gen_w[x]
        else:
            checked = marked or (mode == EXTENDED and seen_r[x][t] < gen_w[x])
            if checked:
                w = last_write[x]
                if w is not None and not hb.ordered(w, ev.index):
                    out.add((ev.index, WRITE_READ))
            if marked:
                last_read[x][t] = ev.index
                gen_r[x] += 1
                seen_r[x][t] = gen_w[x]
            elif checked:
                seen_r[x][t] = gen_w[x]
    return out


def racy_events_full(tr: Trace, hb: Optional[HbClosure] = None) -> Set[Tuple[int, str]]:
    """Reference racy set for the full detector: every access is recorded."""
    all_accesses = [ev.index for ev in tr.events if ev.is_access]
    return racy_events(tr, SAMPLED_ONLY, sampled=all_accesses, hb=hb)
