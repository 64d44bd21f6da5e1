"""Differential comparison of the engines against the oracle.

The paper's timestamping changes how timestamps are computed, never which
races are reported.  This module is the one place that checks it, for
``racelab diff`` and the acceptance suite alike: ``run_configs`` runs
engines, named by their tokens, on identical marks and ``racy_divergence``
compares their racy sets with the oracle's.  ``diff_report`` also compares
every event's effective timestamp with ``oracle.timestamps`` as the event
happens, so it keeps no per-event table and checks traces of any length
whole.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from . import oracle
from .engines import Engine, create_engine
from .trace import Trace

# The engine tokens ``diff`` runs.  Divergences are looked for in this order:
# the sampling family first, then the full detector.
CONFIGS = ("sampling", "uclock", "orderedlist", "djitp")


def _run(tr: Trace, token: str, mode: str, on_event=None) -> Engine:
    engine = create_engine(token, tr, mode=mode, on_event=on_event)
    engine.run(tr)
    return engine


def run_configs(tr: Trace, mode: str, tokens: Iterable[str] = CONFIGS) -> Dict[str, Engine]:
    """Run the engines named by ``tokens`` on ``tr``, in ``CONFIGS`` order.

    Raises ``ValueError`` on a token that is not in ``CONFIGS``, so a
    misspelt token cannot leave an engine unchecked.
    """
    chosen = set(tokens)
    unknown = chosen.difference(CONFIGS)
    if unknown:
        raise ValueError(
            f"unknown engine {', '.join(sorted(unknown))}; known: {', '.join(CONFIGS)}"
        )
    return {token: _run(tr, token, mode) for token in CONFIGS if token in chosen}


def racy_divergence(tr: Trace, mode: str, racy_sets: Dict[str, Set]) -> Optional[dict]:
    """The first engine whose racy set (``racy_sets``, by token) differs
    from the oracle's, as a DIVERGENT report, or ``None``."""
    expected: Dict[bool, set] = {}
    for token, got in racy_sets.items():
        full = token == "djitp"
        if full not in expected:
            expected[full] = oracle.racy_events_full(tr) if full else oracle.racy_events(tr, mode)
        want = expected[full]
        if got != want:
            return {
                "verdict": "DIVERGENT",
                "field": "racy-set",
                "engine": token,
                "only_engine": sorted(got - want),
                "only_oracle": sorted(want - got),
            }
    return None


def _checked_run(
    tr: Trace, token: str, mode: str
) -> Tuple[Set, Optional[Tuple[int, List[int], List[int]]]]:
    """Run one engine, comparing each event's effective timestamp
    with the oracle's as it happens.  Returns the racy set and the first
    mismatch as ``(event index, engine value, oracle value)``, or ``None``;
    the engine is dropped on return."""
    expected = oracle.timestamps(tr, full=token == "djitp")
    mismatch: List[Tuple[int, List[int], List[int]]] = []

    def compare(index: int, eff: List[int]) -> None:
        if not mismatch:
            want = next(expected)
            if eff != want:
                mismatch.append((index, eff, want))

    racy = _run(tr, token, mode, on_event=compare).racy_set()
    return racy, (mismatch[0] if mismatch else None)


def diff_report(tr: Trace, mode: str) -> dict:
    """Compare all four engines against the oracle; machine-readable.

    A racy-set divergence is reported first, in ``CONFIGS`` order; then the
    earliest event whose timestamp diverges, ties going to the engine first
    in ``CONFIGS``.  Engines run one at a time, each keeping only its racy
    set and first mismatch.
    """
    racy_sets: Dict[str, Set] = {}
    mismatches = {}
    for token in CONFIGS:
        racy_sets[token], mismatch = _checked_run(tr, token, mode)
        if mismatch is not None:
            mismatches[token] = mismatch
    report = racy_divergence(tr, mode, racy_sets)
    if report is not None:
        return report
    if mismatches:
        token = min(mismatches, key=lambda tok: mismatches[tok][0])
        index, got, want = mismatches[token]
        return {
            "verdict": "DIVERGENT",
            "field": "snapshot",
            "engine": token,
            "event_index": index,
            "engine_value": got,
            "oracle_value": want,
        }
    # Every run matched the oracle, so the sampling run's races are its races.
    return {"verdict": "EQUIVALENT", "races": sorted(racy_sets["sampling"])}
