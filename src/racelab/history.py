"""Per-variable access histories and race checks shared by all engines.

Histories keep last-access summaries in the Djit+ style: ``cw`` is the full
timestamp of the last recorded write (its own component replaced by the
writer's epoch), ``cr`` holds the per-thread epochs of last recorded reads.

Race checks compare a history against the *effective* timestamp of the
current access: the thread's clock with its own component replaced by the
current epoch.  A thread's clock lags its epoch between a sampled access and
the next release, so comparing against the raw clock would misreport
same-thread histories as racy; happens-before races are defined only across
threads, and the effective value makes own-component comparisons vacuously
satisfied.

Two modes:

* ``sampled-only``: only marked accesses are checked and only marked accesses
  update the summaries.
* ``extended``: additionally, the first unmarked access of each thread after
  a history gained a new marked event runs the same checks (generation
  counters ``gen_r``/``gen_w`` against per-thread ``seen_r``/``seen_w``
  watermarks).  Unmarked events never update ``cr``/``cw``.  The total number
  of checked events is bounded by |S| + 2|S|T.

``AccessHistories.will_check`` is the one predicate for "this access is
checked".  Engines ask it once per access, before they build the effective
timestamp, and call ``check_and_update`` only when it holds.
"""

from __future__ import annotations

from operator import gt
from typing import List, NamedTuple, Optional, Sequence

SAMPLED_ONLY = "sampled-only"
EXTENDED = "extended"

WRITE_WRITE = "write-write"
WRITE_READ = "write-read"  # earlier write races a later read
READ_WRITE = "read-write"  # earlier read races a later write


class RaceReport(NamedTuple):
    """One detected race; ``event_index`` is the later event of the pair.

    A plain tuple, so hashing and ordering (event index, then variable, then
    kind) run in C when thousands of reports are deduplicated and sorted.
    """

    event_index: int
    variable: int
    kind: str

    def render(self, var_name: Optional[str] = None) -> str:
        name = var_name if var_name is not None else f"x{self.variable}"
        return f"RACE {self.kind} at e{self.event_index} on {name}"


class VarHistory:
    """Read/write summary clocks for one variable.

    ``check_read``/``check_write`` run the race check unconditionally; whether
    an access is checked at all is ``AccessHistories.will_check``.
    """

    __slots__ = ("var", "cw", "cr", "gen_r", "gen_w", "seen_r", "seen_w")

    def __init__(self, var: int, width: int):
        self.var = var
        self.cw: List[int] = [0] * width
        self.cr: List[int] = [0] * width
        self.gen_r = 0
        self.gen_w = 0
        self.seen_r = [0] * width
        self.seen_w = [0] * width

    def _not_leq(self, summary: Sequence[int], eff: Sequence[int]) -> bool:
        return any(map(gt, summary, eff))

    def check_read(
        self, event_index: int, thread: int, eff: Sequence[int], epoch: int, marked: bool
    ) -> List[RaceReport]:
        """Race check for a read, plus the summary update if marked; 0 or 1 report."""
        reports: List[RaceReport] = []
        if self._not_leq(self.cw, eff):
            reports.append(RaceReport(event_index, self.var, WRITE_READ))
        if marked:
            self.cr[thread] = epoch
            self.gen_r += 1
        self.seen_r[thread] = self.gen_w
        return reports

    def check_write(
        self, event_index: int, thread: int, eff: List[int], epoch: int, marked: bool
    ) -> List[RaceReport]:
        """Race check for a write, plus the summary update if marked; 0..2 reports.

        A marked write keeps ``eff`` itself as ``cw``.
        """
        reports: List[RaceReport] = []
        if self._not_leq(self.cr, eff):
            reports.append(RaceReport(event_index, self.var, READ_WRITE))
        if self._not_leq(self.cw, eff):
            reports.append(RaceReport(event_index, self.var, WRITE_WRITE))
        if marked:
            self.cw = eff
            self.gen_w += 1
        self.seen_w[thread] = max(self.gen_r, self.gen_w)
        return reports


class AccessHistories:
    """All per-variable histories of one engine plus the check-invocation counter."""

    __slots__ = ("mode", "extended", "histories", "race_checks")

    def __init__(self, num_vars: int, width: int, mode: str = SAMPLED_ONLY):
        if mode not in (SAMPLED_ONLY, EXTENDED):
            raise ValueError(f"unknown history mode {mode!r}")
        self.mode = mode
        self.extended = mode == EXTENDED
        self.histories = [VarHistory(x, width) for x in range(num_vars)]
        self.race_checks = 0

    def will_check(self, thread: int, var: int, is_write: bool, marked: bool) -> bool:
        """Whether this access runs a race check: it is marked, or, in extended
        mode, it is the thread's first access to ``var`` since the history
        gained a marked event it could race with (the watermark test).

        O(1), and it needs no timestamp, so engines call it before building one.
        """
        if marked:
            return True
        if not self.extended:
            return False
        h = self.histories[var]
        if is_write:
            gen_r, gen_w = h.gen_r, h.gen_w
            return h.seen_w[thread] < (gen_r if gen_r > gen_w else gen_w)
        return h.seen_r[thread] < h.gen_w

    def check_and_update(
        self,
        event_index: int,
        thread: int,
        var: int,
        is_write: bool,
        eff: List[int],
        epoch: int,
        marked: bool,
    ) -> List[RaceReport]:
        """Check and record one access that ``will_check`` said is checked.

        Callers ask ``will_check`` first; this method counts the check in
        ``race_checks`` and runs it unconditionally.  The caller hands over
        ``eff``: a marked write keeps it as the write summary, uncopied, so
        the caller must not reuse or mutate it.
        """
        self.race_checks += 1
        h = self.histories[var]
        if is_write:
            return h.check_write(event_index, thread, eff, epoch, marked)
        return h.check_read(event_index, thread, eff, epoch, marked)


def render_reports(reports, var_names=None) -> str:
    """One line per race, sorted by event index then kind."""
    lines = []
    for r in sorted(set(reports)):
        name = var_names[r.variable] if var_names is not None else None
        lines.append(r.render(name))
    return "\n".join(lines) + ("\n" if lines else "")
