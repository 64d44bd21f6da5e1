"""Synthetic trace generation: ``GenConfig`` and ``generate_trace``.

Used by ``racelab gen`` and the tests only; no other command loads this
module.  A generated trace's lock discipline is checked by the same
``_validate_columns`` as a parsed one's.  Each event's ids are numbered as
it is appended, in the one pass that draws it, by the parser's ``_Ids``
tables, so both ways into a ``Trace`` give dense ids by first appearance
and a generated trace round-trips through the text format event for event.

A trace is a function of (config, seed) alone, pinned byte for byte by the
tests.  The event loop draws from ``random.Random(seed)`` in a fixed order.
Its integer draws use CPython's rejection rule behind ``randrange(n)`` and
``choice`` (``_below``), which consumes the same words and returns the same
values; the per-event draws inline it, so they make no method call.  The
free locks and the never-acquired locks are kept as ascending lists,
updated by bisection at each acquire and release, so a lock pick indexes a
list instead of scanning all L locks.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, insort

from .trace import ACQ, READ, REL, WRITE, InfeasibleConfigError, Trace, _Ids, _validate_columns


class GenConfig:
    """Knobs for the synthetic generator.

    ``p_sync`` is the probability that an idle thread starts a critical
    section instead of issuing a bare access; ``contention`` is the
    probability that a new critical section tries to reuse the most recently
    released lock; ``accesses_per_cs`` is the mean number of accesses inside
    a critical section (geometric).
    """

    __slots__ = ("threads", "locks", "vars", "events", "p_sync", "contention", "accesses_per_cs")

    def __init__(
        self,
        threads: int,
        locks: int,
        vars: int,
        events: int,
        p_sync: float = 0.3,
        contention: float = 0.0,
        accesses_per_cs: float = 2.0,
    ):
        values = (threads, locks, vars, events, p_sync, contention, accesses_per_cs)
        for name, value in zip(self.__slots__[:4], values):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        for name, value in (("p_sync", p_sync), ("contention", contention)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not accesses_per_cs >= 0:  # NaN too
            raise ValueError("accesses_per_cs must be non-negative")
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)


_NEST_PROB = 0.15
_MAX_DEPTH = 3


def _below(bits, n: int) -> int:
    """``randrange(n)`` and the index ``choice`` draws for a sequence of
    length ``n``, for the ``Random`` whose ``getrandbits`` is ``bits``:
    CPython's rejection rule, which draws the same words.  The event loop
    inlines it for its per-event draws."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def generate_trace(cfg: GenConfig, seed: int) -> Trace:
    """Generate a valid trace; deterministic in (cfg, seed).

    Lock discipline holds by construction: each thread tracks the stack of
    locks it holds and all open critical sections are closed before the event
    budget runs out.  Raises InfeasibleConfigError when that is impossible
    (an odd event budget with p_sync >= 1, which admits no access padding).
    Thread, lock and var ids are drawn from ``range(n)`` and appended as
    their dense first-appearance ids, so ids that never appear are dropped.
    """
    if cfg.p_sync >= 1.0 and cfg.events % 2 == 1:
        raise InfeasibleConfigError(
            "events too small to close open critical sections: "
            "odd event budget with p_sync = 1"
        )
    rng = random.Random(seed)
    uniform, bits = rng.random, rng.getrandbits
    n_threads, n_vars = cfg.threads, cfg.vars
    k_threads, k_vars = n_threads.bit_length(), n_vars.bit_length()
    p_sync, contention = cfg.p_sync, cfg.contention
    all_sync = p_sync >= 1.0
    p_close = 1.0 / (1.0 + cfg.accesses_per_cs)
    p_nest = _NEST_PROB * p_sync
    held = [[] for _ in range(n_threads)]  # per-thread lock stack
    free = list(range(cfg.locks))  # ascending
    fresh = list(range(cfg.locks))  # never acquired, so free; ascending
    last_released = None
    open_total = 0
    remaining = cfg.events
    threads, kinds, targets = array("i"), array("b"), array("i")
    put_thread, put_kind, put_target = threads.append, kinds.append, targets.append
    thread_ids, lock_ids, var_ids = _Ids(), _Ids(), _Ids()  # raw id -> dense id
    thread_id, lock_id = thread_ids.__getitem__, lock_ids.__getitem__
    var_id = var_ids.__getitem__

    def pick_lock():
        # Contention first, then never-acquired locks, then any free lock.
        # ``last_released`` is None once that lock is acquired again.
        if last_released is not None and uniform() < contention:
            return last_released
        pool = fresh or free
        return pool[_below(bits, len(pool))] if pool else None

    while remaining > open_total:
        thread = bits(k_threads)  # _below(bits, n_threads), inlined
        while thread >= n_threads:
            thread = bits(k_threads)
        stack = held[thread]
        if stack:
            if uniform() < p_close:
                kind = REL
            elif (
                len(stack) < _MAX_DEPTH
                and remaining - 1 > open_total
                and uniform() < p_nest
                and (lock := pick_lock()) is not None
            ):
                kind = ACQ
            else:
                kind = REL if all_sync else READ  # READ: an access, kind drawn below
        elif uniform() < p_sync and (lock := pick_lock()) is not None and remaining - 1 > open_total:
            kind = ACQ
        elif all_sync:
            continue  # all-sync config and no lock available right now
        else:
            kind = READ
        put_thread(thread_id(thread))
        remaining -= 1
        if kind == REL:
            lock = stack.pop()
            put_kind(REL)
            put_target(lock_id(lock))
            insort(free, lock)
            last_released = lock
            open_total -= 1
        elif kind == ACQ:
            put_kind(ACQ)
            put_target(lock_id(lock))
            stack.append(lock)
            if lock == last_released:
                last_released = None
            del free[bisect_left(free, lock)]
            i = bisect_left(fresh, lock)
            if i < len(fresh) and fresh[i] == lock:  # its first acquire
                del fresh[i]
            open_total += 1
        else:
            put_kind(WRITE if uniform() < 0.5 else READ)
            x = bits(k_vars)  # _below(bits, n_vars), inlined
            while x >= n_vars:
                x = bits(k_vars)
            put_target(var_id(x))

    # Out of slack (remaining == open_total): close the open critical
    # sections, innermost first, each on a thread drawn from those holding a
    # lock.  ``busy`` stays ascending, as the draw requires.
    busy = [t for t in range(n_threads) if held[t]]
    while remaining:
        i = _below(bits, len(busy))
        thread = busy[i]
        stack = held[thread]
        put_thread(thread_id(thread))
        put_kind(REL)
        put_target(lock_id(stack.pop()))
        if not stack:
            del busy[i]
        remaining -= 1

    num_threads = max(len(thread_ids), 1)
    marks = bytes(len(kinds))
    _validate_columns(threads, kinds, targets, len(lock_ids))
    return Trace(threads, kinds, targets, marks, num_threads, len(lock_ids), len(var_ids))
