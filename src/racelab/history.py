"""Per-variable access histories and race checks shared by all engines.

Histories keep last-access summaries.  The last recorded write is a
FastTrack epoch (Flanagan & Freund, PLDI 2009): the writer ``w_thread`` and
its epoch ``w_epoch`` at the write.  ``cr`` holds the per-thread epochs of
last recorded reads, one component per thread.

Race checks compare a summary against the *effective* timestamp of the
current access: the thread's clock with its own component replaced by the
current epoch.  A thread's clock lags its epoch between a sampled access and
the next release, so comparing against the raw clock would misreport
same-thread histories as racy; happens-before races are defined only across
threads, and the effective value makes own-component comparisons vacuously
satisfied.  So a check needs only the thread's live clock row for the other
threads' components, and excludes its own.

The write epoch loses nothing against the write's full timestamp.  Take a
recorded write W by thread u in epoch e, and a later access E by thread
t != u.  In every engine and both modes, the value e first enters any
clock at the sample-consuming release that ends u's epoch e, and that
release comes after W in u's program order.  The clock it publishes has u's
component e and, on every other component, at least W's effective
timestamp, because clocks only grow.  Thread t's component for u reaches e
only through a chain of acquires starting at that release or a later one of
u, and each acquire joins the whole published clock.  So
``eff_W <= eff_E`` holds iff ``e <= eff_E[u]``, and E races W iff
``w_epoch > row[w_thread]``.  For t == u the two are program-ordered and
never race.  A read check is therefore O(1), and a write check is one scan
of ``cr`` against the row, with ``cr[t]`` zeroed for the scan.

Two modes:

* ``sampled-only``: only marked accesses are checked and only marked accesses
  update the summaries.  The histories write no watermark: ``gen_r`` and
  ``gen_w`` stay 0 and ``seen_r``/``seen_w`` are never allocated.
* ``extended``: additionally, the first unmarked access of each thread after
  a history gained a new marked event it could race with runs the same
  checks.  ``gen_r``/``gen_w`` count a variable's marked reads and writes.
  A read may race only with writes, so its watermark ``seen_r`` is the
  ``gen_w`` it last saw; a write may race with both, so ``seen_w`` is the
  ``gen_r + gen_w`` it last saw.  A sum, not the larger of the two: that
  stays put when a new marked event leaves the maximum unchanged, and the
  next unmarked write would go unchecked.  Unmarked events never update the
  summaries.  A thread's unmarked checks on a variable are bounded by the
  marked events on it, once for reads and once for writes, so the total
  number of checked events is bounded by |S| + 2|S|T.

An access is checked when it is marked or ``AccessHistories.will_check``
holds for it.  Only then does an engine call ``check_and_update``, once,
handing it the live clock row and the engine's report list, to which the
access's reports are appended; no timestamp and no per-access list is built.
"""

from __future__ import annotations

from operator import gt
from typing import List, Optional, Sequence, Tuple

SAMPLED_ONLY = "sampled-only"
EXTENDED = "extended"

WRITE_WRITE = "write-write"
WRITE_READ = "write-read"  # earlier write races a later read
READ_WRITE = "read-write"  # earlier read races a later write

# One detected race: (event index, variable id, kind), where the event is the
# later one of the pair.  A plain tuple, so hashing and ordering (event
# index, then variable, then kind) run in C when thousands of reports are
# deduplicated and sorted.
Report = Tuple[int, int, str]


class VarHistory:
    """The summaries of one variable: the write epoch, the read epochs and,
    in extended mode only, the watermarks.

    ``w_epoch`` 0 means no recorded write: epochs start at 1, so it never
    exceeds a clock component.
    """

    __slots__ = ("w_thread", "w_epoch", "cr", "gen_r", "gen_w", "seen_r", "seen_w")

    def __init__(self, width: int, extended: bool):
        self.w_thread = 0
        self.w_epoch = 0
        self.cr: List[int] = [0] * width
        self.gen_r = 0
        self.gen_w = 0
        self.seen_r: Optional[List[int]] = [0] * width if extended else None
        self.seen_w: Optional[List[int]] = [0] * width if extended else None


class AccessHistories:
    """All per-variable histories of one engine plus the check-invocation counter."""

    __slots__ = ("extended", "histories", "race_checks")

    def __init__(self, num_vars: int, width: int, mode: str = SAMPLED_ONLY):
        if mode not in (SAMPLED_ONLY, EXTENDED):
            raise ValueError(f"unknown history mode {mode!r}")
        self.extended = mode == EXTENDED
        self.histories = [VarHistory(width, self.extended) for _ in range(num_vars)]
        self.race_checks = 0

    def will_check(self, thread: int, var: int, is_write: bool) -> bool:
        """Whether this unmarked access runs a race check: in extended mode,
        it is the thread's first access to ``var`` since the history gained a
        marked event it could race with (the watermark test).  A marked
        access is always checked, so callers test ``marked`` first.

        O(1), and it needs no timestamp.
        """
        if not self.extended:
            return False
        h = self.histories[var]
        if is_write:
            return h.seen_w[thread] < h.gen_r + h.gen_w
        return h.seen_r[thread] < h.gen_w

    def check_and_update(
        self,
        event_index: int,
        thread: int,
        var: int,
        is_write: bool,
        row: Sequence[int],
        epoch: int,
        marked: bool,
        reports: List[Report],
    ) -> None:
        """Check and record one access that is marked or passed ``will_check``.

        Callers test that first; this method counts the check in
        ``race_checks`` and runs it unconditionally.  ``row`` is the thread's
        live clock, read but never kept or mutated; its own component is
        ignored, ``epoch`` stands for it.  A read check is O(1) and a write
        check one scan of ``cr``; a marked access records ``epoch``.
        Appends 0..2 reports to ``reports``, ``read-write`` before
        ``write-write``.
        """
        self.race_checks += 1
        h = self.histories[var]
        w_thread = h.w_thread
        write_races = w_thread != thread and h.w_epoch > row[w_thread]
        if not is_write:
            if write_races:
                reports.append((event_index, var, WRITE_READ))
            if marked:
                h.cr[thread] = epoch
            if self.extended:
                h.gen_r += marked
                h.seen_r[thread] = h.gen_w
            return
        cr = h.cr
        own = cr[thread]
        cr[thread] = 0  # the thread's own reads are program-ordered before it
        if any(map(gt, cr, row)):
            reports.append((event_index, var, READ_WRITE))
        cr[thread] = own
        if write_races:
            reports.append((event_index, var, WRITE_WRITE))
        if marked:
            h.w_thread = thread
            h.w_epoch = epoch
        if self.extended:
            h.gen_w += marked
            h.seen_w[thread] = h.gen_r + h.gen_w


def render_reports(reports, var_names=None) -> str:
    """One line per distinct race, sorted by event index, variable, then kind.

    ``reports`` holds ``(event_index, variable, kind)`` tuples; a variable
    is named ``var_names[variable]``, or ``x<variable>`` without names.  The
    engines emit reports in event order, so ``dict.fromkeys`` keeps that
    order and the sort is linear.  Every report of an event is emitted with
    it, so rendering the reports of consecutive blocks of events one block
    at a time gives the same text as rendering them whole.
    """
    unique = sorted(dict.fromkeys(reports))
    if var_names is None:
        lines = [f"RACE {kind} at e{index} on x{var}\n" for index, var, kind in unique]
    else:
        lines = [f"RACE {kind} at e{index} on {var_names[var]}\n" for index, var, kind in unique]
    return "".join(lines)
