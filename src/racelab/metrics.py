"""Uniform operation counters across engines and machine-readable reports.

Counting conventions:

* ``full_traversals`` counts O(T) clock-width passes in the synchronization
  handlers only: one per acquire join, one per release copy (two each for the
  freshness engine, which keeps a second clock), and one per deep copy in the
  ordered-list engine.  Race-check comparisons are not counted here.
* ``entries_saved`` accumulates, at each non-skipped acquire of the
  ordered-list engine, the difference between T and the number of list
  entries actually traversed.
* ``epoch_increments`` counts local-epoch advances (every release for the
  baseline full detector, only sample-consuming releases for the sampling
  engines).
* ``race_checks`` counts accesses checked against the histories
  (``AccessHistories.race_checks``): |S| in ``sampled-only`` mode, at most
  |S| + 2|S|T in ``extended`` mode, every access for the baseline detector.
"""

from __future__ import annotations

import io
import json
from typing import Mapping, Optional

# Every counter, in emission order; ``RunMetrics`` also keeps ``num_threads``.
_COUNTER_FIELDS = (
    "events_total",
    "accesses_total",
    "accesses_sampled",
    "acquires_total",
    "acquires_skipped",
    "releases_total",
    "releases_copied",
    "deep_copies",
    "shallow_copies",
    "nodes_visited",
    "full_traversals",
    "entries_saved",
    "race_count",
    "epoch_increments",
    "race_checks",
)


class RunMetrics:
    """The counters of one run, all starting at 0."""

    __slots__ = _COUNTER_FIELDS + ("num_threads",)

    def __init__(self, num_threads: int):
        for name in _COUNTER_FIELDS:
            setattr(self, name, 0)
        self.num_threads = num_threads

    @property
    def skip_ratio(self) -> float:
        if self.acquires_total == 0:
            return 0.0
        return self.acquires_skipped / self.acquires_total

    @property
    def saving_ratio(self) -> float:
        processed = self.acquires_total - self.acquires_skipped
        denom = self.num_threads * processed
        if denom == 0:
            return 0.0
        return self.entries_saved / denom

    def as_dict(self, labels: Optional[Mapping[str, object]] = None) -> dict:
        row: dict = dict(labels) if labels else {}
        for name in _COUNTER_FIELDS:
            row[name] = getattr(self, name)
        row["skip_ratio"] = self.skip_ratio
        row["saving_ratio"] = self.saving_ratio
        return row


def emit(metrics: RunMetrics, labels: Optional[Mapping[str, object]] = None) -> str:
    """Render one metrics record as a one-line JSON object."""
    return json.dumps(metrics.as_dict(labels), sort_keys=False) + "\n"


def emit_csv_rows(rows) -> str:
    """CSV with a mandatory header row; field order follows the first row.

    ``rows`` is a non-empty list: ``bench`` requires a trace and a rate.
    """
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
