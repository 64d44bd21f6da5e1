"""Differential comparison of the engine configurations against the oracle.

The paper's timestamping changes how timestamps are computed, never which
races are reported.  This module is the one place that checks it, for
``racelab diff`` and the acceptance suite alike: ``run_configs`` runs engine
configurations on identical marks, ``racy_divergence`` compares their racy
sets with the oracle's and ``snapshot_divergence`` their per-event effective
timestamps with the declarative tables.  Both take an already-built closure
or table, so a caller comparing many markings of one trace builds it once.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Iterable, List, NamedTuple, Optional

from . import oracle
from .engines import Engine, create_engine
from .trace import Trace

# The oracle's closure keeps an n-bit predecessor set per event: n^2/8 bytes,
# 50 MB at this size, where a whole diff at 64 threads peaks near 160 MB.
# perfbench's correctness gate diffs 6000-event prefixes, so keep it >= 6000.
MAX_EVENTS = 20_000

# label -> (engine token, local_epoch_opt).  Divergences are looked for in
# this order: the sampling family first, then the full detector.
CONFIGS = {
    "sampling": ("sampling", True),
    "uclock": ("uclock", True),
    "orderedlist": ("orderedlist", True),
    "orderedlist-noopt": ("orderedlist", False),
    "djitp": ("djitp", True),
}


class TraceTooLargeError(ValueError):
    """The trace has more events than the oracle is built for."""


class Run(NamedTuple):
    """One finished engine run; ``snapshots`` holds per-event effective
    timestamps when they were recorded, else ``None``."""

    engine: Engine
    snapshots: Optional[List[List[int]]]


def run_configs(
    tr: Trace, mode: str, labels: Iterable[str] = CONFIGS, snapshots: bool = False
) -> Dict[str, Run]:
    """Run the named configurations on ``tr``, in ``CONFIGS`` order.

    Raises ``ValueError`` on a label that is not in ``CONFIGS``, so a
    misspelt label cannot leave a configuration unchecked.
    """
    chosen = set(labels)
    unknown = chosen - CONFIGS.keys()
    if unknown:
        raise ValueError(
            f"unknown configuration {', '.join(sorted(unknown))}; "
            f"known: {', '.join(CONFIGS)}"
        )
    runs: Dict[str, Run] = {}
    for label, (token, opt) in CONFIGS.items():
        if label not in chosen:
            continue
        snaps: Optional[List[List[int]]] = [] if snapshots else None
        hook = (lambda index, eff, s=snaps: s.append(eff)) if snapshots else None
        engine = create_engine(token, tr, mode=mode, local_epoch_opt=opt, on_event=hook)
        engine.run(tr)
        runs[label] = Run(engine, snaps)
    return runs


def racy_divergence(
    tr: Trace, mode: str, runs: Dict[str, Run], hb: oracle.HbClosure
) -> Optional[dict]:
    """The first run whose racy set differs from the oracle's, as a DIVERGENT
    report, or ``None``.  ``hb`` is ``oracle.hb_closure`` of ``tr``."""
    expected: Dict[bool, set] = {}
    for label, run in runs.items():
        full = label == "djitp"
        if full not in expected:
            expected[full] = (
                oracle.racy_events_full(tr, hb=hb) if full
                else oracle.racy_events(tr, mode, hb=hb)
            )
        want, got = expected[full], run.engine.racy_set()
        if got != want:
            return {
                "verdict": "DIVERGENT",
                "field": "racy-set",
                "engine": label,
                "only_engine": sorted(got - want),
                "only_oracle": sorted(want - got),
            }
    return None


def snapshot_divergence(
    tr: Trace, runs: Dict[str, Run], tables: oracle.TimestampTables
) -> Optional[dict]:
    """The first event at which some run's effective timestamp differs from
    the declarative one, as a DIVERGENT report, or ``None``.  Runs must carry
    snapshots; ``tables`` is ``oracle.timestamp_tables`` of ``tr``."""
    for i, t in zip(count(1), tr.threads):
        sampling_ts = tables.ct_smp_effective(i, t)
        for label, run in runs.items():
            expect = tables.ct_ft[i - 1] if label == "djitp" else sampling_ts
            got = run.snapshots[i - 1]
            if got != expect:
                return {
                    "verdict": "DIVERGENT",
                    "field": "snapshot",
                    "engine": label,
                    "event_index": i,
                    "engine_value": got,
                    "oracle_value": expect,
                }
    return None


def diff_report(tr: Trace, mode: str) -> dict:
    """Compare all five configurations against the oracle; machine-readable.

    Raises ``TraceTooLargeError`` above ``MAX_EVENTS`` events, before any
    engine runs or the closure is built.
    """
    if len(tr) > MAX_EVENTS:
        raise TraceTooLargeError(
            f"trace has {len(tr)} events; diff is limited to {MAX_EVENTS} "
            f"because the oracle's closure needs n^2/8 bytes"
        )
    runs = run_configs(tr, mode, snapshots=True)
    hb = oracle.hb_closure(tr)
    report = racy_divergence(tr, mode, runs, hb) or snapshot_divergence(
        tr, runs, oracle.timestamp_tables(tr, hb=hb)
    )
    if report is not None:
        return report
    # Every run matched the oracle, so the sampling run's races are its races.
    return {"verdict": "EQUIVALENT", "races": sorted(runs["sampling"].engine.racy_set())}
