"""Synthetic trace generation: ``GenConfig`` and ``generate_trace``.

Used by ``racelab gen``, ``racelab bench`` and the tests; ``racelab analyze``
never loads this module.  A generated trace is validated by the same
``_validate_columns`` as a parsed one and has dense ids by first
appearance, so it round-trips through the text format event for event.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import List, Optional

from .trace import ACQ, READ, REL, WRITE, InfeasibleConfigError, Trace, _Ids, _validate_columns


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the synthetic generator.

    ``p_sync`` is the probability that an idle thread starts a critical
    section instead of issuing a bare access; ``contention`` is the
    probability that a new critical section tries to reuse the most recently
    released lock; ``accesses_per_cs`` is the mean number of accesses inside
    a critical section (geometric).
    """

    threads: int
    locks: int
    vars: int
    events: int
    p_sync: float = 0.3
    contention: float = 0.0
    accesses_per_cs: float = 2.0

    def __post_init__(self):
        for name in ("threads", "locks", "vars", "events"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("p_sync", "contention"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.accesses_per_cs < 0:
            raise ValueError("accesses_per_cs must be non-negative")


_NEST_PROB = 0.15
_MAX_DEPTH = 3


def generate_trace(cfg: GenConfig, seed: int) -> Trace:
    """Generate a valid trace; deterministic in (cfg, seed).

    Lock discipline holds by construction: each thread tracks the stack of
    locks it holds and all open critical sections are closed before the event
    budget runs out.  Raises InfeasibleConfigError when that is impossible
    (an odd event budget with p_sync >= 1, which admits no access padding).
    """
    if cfg.p_sync >= 1.0 and cfg.events % 2 == 1:
        raise InfeasibleConfigError(
            "events too small to close open critical sections: "
            "odd event budget with p_sync = 1"
        )
    rng = random.Random(seed)
    p_close = 1.0 / (1.0 + cfg.accesses_per_cs)
    held: List[List[int]] = [[] for _ in range(cfg.threads)]  # per-thread lock stack
    lock_free = [True] * cfg.locks
    lock_used = [False] * cfg.locks
    last_released: Optional[int] = None
    open_total = 0
    threads, kinds, targets = array("i"), array("b"), array("i")

    def emit(thread: int, kind: int, target: int) -> None:
        threads.append(thread)
        kinds.append(kind)
        targets.append(target)

    def pick_lock() -> Optional[int]:
        # Contention first, then never-acquired locks, then any free lock.
        if (
            last_released is not None
            and lock_free[last_released]
            and rng.random() < cfg.contention
        ):
            return last_released
        fresh = [l for l in range(cfg.locks) if lock_free[l] and not lock_used[l]]
        if fresh:
            return rng.choice(fresh)
        free = [l for l in range(cfg.locks) if lock_free[l]]
        return rng.choice(free) if free else None

    def release(thread: int) -> None:
        nonlocal last_released, open_total
        lock = held[thread].pop()
        emit(thread, REL, lock)
        lock_free[lock] = True
        last_released = lock
        open_total -= 1

    def acquire(thread: int, lock: int) -> None:
        nonlocal open_total
        emit(thread, ACQ, lock)
        held[thread].append(lock)
        lock_free[lock] = False
        lock_used[lock] = True
        open_total += 1

    def access(thread: int) -> None:
        kind = WRITE if rng.random() < 0.5 else READ
        emit(thread, kind, rng.randrange(cfg.vars))

    while len(kinds) < cfg.events:
        remaining = cfg.events - len(kinds)
        if remaining <= open_total:
            # Out of slack: close open critical sections, innermost first.
            release(rng.choice([t for t in range(cfg.threads) if held[t]]))
            continue
        thread = rng.randrange(cfg.threads)
        depth = len(held[thread])
        if depth > 0:
            if rng.random() < p_close:
                release(thread)
            elif (
                depth < _MAX_DEPTH
                and remaining - 1 > open_total
                and rng.random() < _NEST_PROB * cfg.p_sync
                and (lock := pick_lock()) is not None
            ):
                acquire(thread, lock)
            elif cfg.p_sync >= 1.0:
                release(thread)
            else:
                access(thread)
        else:
            start = rng.random() < cfg.p_sync
            lock = pick_lock() if start else None
            if start and lock is not None and remaining - 1 > open_total:
                acquire(thread, lock)
            elif cfg.p_sync >= 1.0:
                continue  # all-sync config and no lock available right now
            else:
                access(thread)

    return _relabel_by_first_appearance(threads, kinds, targets)


def _relabel_by_first_appearance(threads: array, kinds: array, targets: array) -> Trace:
    """Renumber thread/lock/var ids densely by first appearance, in place.

    Keeps the dense-id invariant that parse_trace establishes, so generated
    traces round-trip through the text format event-for-event; ids that never
    appear are dropped.  The columns become the trace's own.
    """
    thread_ids, lock_ids, var_ids = _Ids(), _Ids(), _Ids()
    tables = (lock_ids, var_ids)
    for pos, (t, k, x) in enumerate(zip(threads, kinds, targets)):
        threads[pos] = thread_ids[t]
        targets[pos] = tables[k >= READ][x]
    num_threads = max(len(thread_ids), 1)
    marks = bytes(len(kinds))
    _validate_columns(threads, kinds, targets, marks, num_threads, len(lock_ids), len(var_ids))
    return Trace._from_columns(
        threads, kinds, targets, marks, num_threads, len(lock_ids), len(var_ids),
    )
