"""Bounded-exhaustive equivalence: every lock-disciplined trace of a small scope.

A scope ``(T, L, V)`` bounds a trace's threads, locks and variables.  Ids
are dense in order of first appearance, so no two enumerated traces are
renamings of each other, and every access is enumerated both marked and
unmarked.  Traces are enumerated by event count ``n``, all scopes at one
``n`` before any at ``n + 1``, so the first failure found is a smallest
one.  A trace that fits an earlier scope is not enumerated again under a
later one.

``first_failure`` runs each trace through ``diff_report`` in both history
modes and, with ``checked`` set, through the invariant checker of
``tests/invariants.py`` for every engine in both modes.  Run as a script it
checks ``SCOPES`` up to ``MAX_EVENTS`` events with ``diff_report`` only,
prints a line per ``n`` and, on a failure, the trace in the text format and
what failed, and exits 1::

    python tests/exhaustive.py
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

if __name__ == "__main__":
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src")]

from conftest import trace_text
from invariants import checked_engine
from racelab.differential import diff_report
from racelab.engines import ENGINE_TOKENS
from racelab.history import EXTENDED, SAMPLED_ONLY
from racelab.trace import ACQ, READ, REL, WRITE, Trace

MODES = (SAMPLED_ONLY, EXTENDED)
# What the script checks: 527,424 traces, a few minutes.
SCOPES = [(2, 1, 1), (2, 2, 2)]
MAX_EVENTS = 5

Scope = Tuple[int, int, int]
# (thread, kind, target, marked)
Row = Tuple[int, int, int, bool]


def _rows(scope: Scope, n: int) -> Iterator[Tuple[List[Row], Scope]]:
    """``(rows, size)`` for every disciplined event list of exactly ``n``
    events within ``scope``, where ``size`` is the threads, locks and
    variables the list uses.  One list is mutated in place: copy what you
    keep."""
    num_threads, num_locks, num_vars = scope
    rows: List[Row] = []
    holder = [-1] * num_locks  # the thread holding each lock, -1 if free

    def extend(threads: int, locks: int, variables: int) -> Iterator[Tuple[List[Row], Scope]]:
        if len(rows) == n:
            yield rows, (threads, locks, variables)
            return
        for t in range(min(threads + 1, num_threads)):
            seen = max(threads, t + 1)
            for lock in range(min(locks + 1, num_locks)):
                h = holder[lock]
                if h == -1:
                    holder[lock], kind = t, ACQ
                elif h == t:
                    holder[lock], kind = -1, REL
                else:
                    continue
                rows.append((t, kind, lock, False))
                yield from extend(seen, max(locks, lock + 1), variables)
                rows.pop()
                holder[lock] = h
            for x in range(min(variables + 1, num_vars)):
                for step in ((t, READ, x, False), (t, READ, x, True),
                             (t, WRITE, x, False), (t, WRITE, x, True)):
                    rows.append(step)
                    yield from extend(seen, locks, max(variables, x + 1))
                    rows.pop()

    return extend(0, 0, 0)


def _fits(size: Scope, scope: Scope) -> bool:
    return all(a <= b for a, b in zip(size, scope))


def traces(scopes: Sequence[Scope], n: int) -> Iterator[Trace]:
    """Every disciplined trace of ``n`` events in any of ``scopes``, once."""
    for i, scope in enumerate(scopes):
        for rows, size in _rows(scope, n):
            if any(_fits(size, earlier) for earlier in scopes[:i]):
                continue
            threads, kinds, targets, marks = zip(*rows)
            yield Trace(
                array("i", threads), array("b", kinds), array("i", targets), bytes(marks), *size
            )


def failure(tr: Trace, checked: bool) -> Optional[str]:
    """What fails on ``tr``, or ``None``."""
    for mode in MODES:
        report = diff_report(tr, mode)
        if report["verdict"] != "EQUIVALENT":
            return f"diff_report, {mode}: {report}"
    if checked:
        for token in ENGINE_TOKENS:
            for mode in MODES:
                try:
                    checked_engine(token, tr, mode=mode).run(tr)
                except AssertionError as error:
                    return f"checker, {token}, {mode}: {error}"
    return None


def _run(scopes: Sequence[Scope], n: int, checked: bool) -> Tuple[int, Optional[Tuple[Trace, str]]]:
    """``(traces run, (trace, what failed))`` for the first failing trace of
    exactly ``n`` events, or ``(traces run, None)``."""
    runs = 0
    for tr in traces(scopes, n):
        runs += 1
        what = failure(tr, checked)
        if what is not None:
            return runs, (tr, what)
    return runs, None


def first_failure(scopes: Sequence[Scope], max_events: int,
                  checked: bool = False) -> Tuple[int, Optional[Tuple[Trace, str]]]:
    """``(traces run, (trace, what failed))`` for the first failing trace of
    1 to ``max_events`` events, or ``(traces run, None)``."""
    runs = 0
    for n in range(1, max_events + 1):
        ran, failed = _run(scopes, n, checked)
        runs += ran
        if failed is not None:
            return runs, failed
    return runs, None


def main() -> int:
    start = time.perf_counter()
    runs = 0
    for n in range(1, MAX_EVENTS + 1):
        ran, failed = _run(SCOPES, n, checked=False)
        runs += ran
        if failed is not None:
            tr, what = failed
            print(f"FAIL after {runs} traces, at {n} events: {what}\n{trace_text(tr)}", end="")
            return 1
        print(f"n <= {n}: {runs} traces pass ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{runs} traces of scopes {SCOPES} up to {MAX_EVENTS} events: all EQUIVALENT")
    return 0


if __name__ == "__main__":
    sys.exit(main())
