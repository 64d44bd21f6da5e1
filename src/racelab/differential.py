"""Differential comparison of the engine configurations against the oracle.

The paper's timestamping changes how timestamps are computed, never which
races are reported.  This module is the one place that checks it, for
``racelab diff`` and the acceptance suite alike: ``run_configs`` runs engine
configurations on identical marks and ``racy_divergence`` compares their
racy sets with the oracle's.  ``diff_report`` also compares every event's
effective timestamp with ``oracle.timestamps`` as the event happens, so it
keeps no per-event table and checks traces of any length whole.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from . import oracle
from .engines import Engine, create_engine
from .trace import Trace

# label -> (engine token, local_epoch_opt).  Divergences are looked for in
# this order: the sampling family first, then the full detector.
CONFIGS = {
    "sampling": ("sampling", True),
    "uclock": ("uclock", True),
    "orderedlist": ("orderedlist", True),
    "orderedlist-noopt": ("orderedlist", False),
    "djitp": ("djitp", True),
}


def _run(tr: Trace, label: str, mode: str, on_event=None) -> Engine:
    token, opt = CONFIGS[label]
    engine = create_engine(token, tr, mode=mode, local_epoch_opt=opt, on_event=on_event)
    engine.run(tr)
    return engine


def run_configs(tr: Trace, mode: str, labels: Iterable[str] = CONFIGS) -> Dict[str, Engine]:
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
    return {label: _run(tr, label, mode) for label in CONFIGS if label in chosen}


def racy_divergence(tr: Trace, mode: str, racy_sets: Dict[str, Set]) -> Optional[dict]:
    """The first configuration whose racy set (``racy_sets``, by label)
    differs from the oracle's, as a DIVERGENT report, or ``None``."""
    expected: Dict[bool, set] = {}
    for label, got in racy_sets.items():
        full = label == "djitp"
        if full not in expected:
            expected[full] = oracle.racy_events_full(tr) if full else oracle.racy_events(tr, mode)
        want = expected[full]
        if got != want:
            return {
                "verdict": "DIVERGENT",
                "field": "racy-set",
                "engine": label,
                "only_engine": sorted(got - want),
                "only_oracle": sorted(want - got),
            }
    return None


def _checked_run(
    tr: Trace, label: str, mode: str
) -> Tuple[Set, Optional[Tuple[int, List[int], List[int]]]]:
    """Run one configuration, comparing each event's effective timestamp
    with the oracle's as it happens.  Returns the racy set and the first
    mismatch as ``(event index, engine value, oracle value)``, or ``None``;
    the engine is dropped on return."""
    expected = oracle.timestamps(tr, full=label == "djitp")
    mismatch: List[Tuple[int, List[int], List[int]]] = []

    def compare(index: int, eff: List[int]) -> None:
        if not mismatch:
            want = next(expected)
            if eff != want:
                mismatch.append((index, eff, want))

    racy = _run(tr, label, mode, on_event=compare).racy_set()
    return racy, (mismatch[0] if mismatch else None)


def diff_report(tr: Trace, mode: str) -> dict:
    """Compare all five configurations against the oracle; machine-readable.

    A racy-set divergence is reported first, in ``CONFIGS`` order; then the
    earliest event whose timestamp diverges, ties going to the configuration
    first in ``CONFIGS``.  Configurations run one at a time, each keeping only
    its racy set and first mismatch.
    """
    racy_sets: Dict[str, Set] = {}
    mismatches = {}
    for label in CONFIGS:
        racy_sets[label], mismatch = _checked_run(tr, label, mode)
        if mismatch is not None:
            mismatches[label] = mismatch
    report = racy_divergence(tr, mode, racy_sets)
    if report is not None:
        return report
    if mismatches:
        label = min(mismatches, key=lambda lb: mismatches[lb][0])
        index, got, want = mismatches[label]
        return {
            "verdict": "DIVERGENT",
            "field": "snapshot",
            "engine": label,
            "event_index": index,
            "engine_value": got,
            "oracle_value": want,
        }
    # Every run matched the oracle, so the sampling run's races are its races.
    return {"verdict": "EQUIVALENT", "races": sorted(racy_sets["sampling"])}
