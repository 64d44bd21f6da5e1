"""Shared fixtures: golden traces, random-config helpers and the
one-event-at-a-time sampling rule."""

from __future__ import annotations

import io
import random
from array import array
from itertools import count

import pytest
from hypothesis import strategies as st

from racelab.engines import create_engine, observe
from racelab.gen import GenConfig, generate_trace
from racelab.trace import (
    _TOKENS,
    ACQ,
    SamplingPolicy,
    Trace,
    apply_sampling,
    parse_trace,
    write_trace,
)

# The 18-event two-thread handoff execution used throughout the golden tests.
# Sample marks sit on events 5, 15 and 16.  Thread ids: T1 -> 0, T2 -> 1;
# lock ids by first appearance: l4 -> 0, l3 -> 1, l2 -> 2, l1 -> 3.
LADDER_TEXT = """\
T1|acq(l4)
T1|acq(l3)
T1|acq(l2)
T1|acq(l1)
T1|w(x)|*
T1|rel(l1)
T1|w(x)
T2|acq(l1)
T2|w(x)
T1|rel(l2)
T1|w(x)
T2|acq(l2)
T1|rel(l3)
T2|acq(l3)
T1|w(x)|*
T1|w(x)|*
T1|rel(l4)
T2|acq(l4)
"""

L4, L3, L2, L1 = 0, 1, 2, 3  # dense lock ids in LADDER_TEXT


@pytest.fixture(scope="session")
def ladder_trace():
    return parse_trace(LADDER_TEXT)


@pytest.fixture(scope="session")
def ladder_all_marked(ladder_trace):
    return apply_sampling(ladder_trace, SamplingPolicy.bernoulli(1.0, 0))


def trace_text(tr: Trace) -> str:
    """``tr`` in the text format, as ``racelab gen`` writes it."""
    out = io.StringIO()
    write_trace(tr, out)
    return out.getvalue()


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """The splitmix64 finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def bernoulli_hit(seed: int, event_index: int, rate: float) -> bool:
    """The mark decision for one event, the reference for
    ``racelab.trace.bernoulli_marks``: ``mix64(seed + index * GOLDEN)``
    (mod 2**64) compared against ``floor(rate * 2**64)``, so it depends only
    on (seed, event index)."""
    z = mix64((seed + event_index * _GOLDEN) & _MASK64)
    return z < int(rate * (1 << 64))


def empty_trace(threads: int, locks: int, variables: int) -> Trace:
    """A trace with no events and the given dimensions, to size an engine."""
    return Trace(array("i"), array("b"), array("i"), b"", threads, locks, variables)


def rows(tr: Trace):
    """The events of ``tr`` read off its columns, as a list of ``(index,
    thread, kind, target, marked)`` rows; ``kind`` is a kind code."""
    return list(zip(count(1), tr.threads, tr.kinds, tr.targets, map(bool, tr.marks)))


def run_prefix(token: str, tr: Trace, n: int, make=create_engine, **kwargs):
    """A fresh ``token`` engine, built by ``make`` and sized for ``tr``,
    after ``Engine.run`` on the first ``n`` events of ``tr``, sliced from its
    columns."""
    engine = make(token, tr, **kwargs)
    engine.run(Trace(
        tr.threads[:n], tr.kinds[:n], tr.targets[:n], tr.marks[:n],
        tr.num_threads, tr.num_locks, tr.num_vars,
    ))
    return engine


def skip_decisions(engine, tr: Trace) -> dict:
    """Run ``engine`` over ``tr``; map each acquire's index to True if the
    engine skipped it.  An ``observe`` hook reads the skip counter after
    every event."""
    skipped = [0]  # the counter after event i is skipped[i]
    observe(engine, lambda index, eff: skipped.append(engine.metrics.acquires_skipped))
    engine.run(tr)
    return {i: skipped[i] > skipped[i - 1] for i, _, kind, _, _ in rows(tr) if kind == ACQ}


def tally_deep_copies(engine, tr: Trace) -> list:
    """Count an orderedlist ``engine``'s deep copies per thread while it runs
    ``tr``; returns the counts, filled in as the run goes.

    Only an acquire's copy-on-write step replaces a thread's list, and at
    most once per event, so an ``observe`` hook compares the acting
    thread's list with the one it saw last: O(1) per event."""
    counts = [0] * tr.num_threads
    seen = list(engine.o_threads)
    threads = tr.threads

    def note(index, eff):
        t = threads[index - 1]
        lst = engine.o_threads[t]
        if lst is not seen[t]:
            seen[t] = lst
            counts[t] += 1

    observe(engine, note)
    return counts


def handoff_trace(k: int = 100):
    """One sampled access followed by k redundant lock handoffs between two threads."""
    lines = ["T1|acq(l)", "T1|w(x)|*", "T1|rel(l)"]
    for _ in range(k):
        lines += ["T2|acq(l)", "T2|rel(l)", "T1|acq(l)", "T1|rel(l)"]
    return parse_trace("\n".join(lines))


def random_config(rng: random.Random, max_events: int = 160) -> GenConfig:
    return GenConfig(
        threads=rng.randint(1, 8),
        locks=rng.randint(1, 8),
        vars=rng.randint(1, 8),
        events=rng.randint(10, max_events),
        p_sync=rng.choice([0.1, 0.3, 0.5, 0.7]),
        contention=rng.random(),
        accesses_per_cs=rng.choice([0.5, 1.0, 2.0, 4.0]),
    )


def random_traces(seed: int, count: int, max_events: int = 160):
    """Deterministic stream of (trace, rate) pairs for differential tests."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        tr = generate_trace(random_config(rng, max_events), seed * 10_000 + i)
        rate = rng.choice([0.0, 0.05, 0.2, 0.5, 1.0])
        out.append((apply_sampling(tr, SamplingPolicy.bernoulli(rate, i)), rate))
    return out


@st.composite
def valid_traces(draw):
    """Lock-discipline-respecting event lists in file tokens, with the
    ``rows`` a parse must produce (dense ids by first appearance)."""
    names = ["T1", "T2", "T3"]
    locks = ["l1", "l2"]
    variables = ["x", "y", "z"]
    holder = {}
    tokens, ids = [], ({}, {}, {})
    expected = []
    for index in range(1, draw(st.integers(0, 30)) + 1):
        thread = draw(st.sampled_from(names))
        held = [l for l, h in holder.items() if h == thread]
        free = [l for l in locks if l not in holder]
        choices = ["r", "w"] + (["acq"] if free else []) + (["rel"] if held else [])
        op = draw(st.sampled_from(choices))
        if op == "acq":
            obj = draw(st.sampled_from(free))
            holder[obj] = thread
        elif op == "rel":
            obj = draw(st.sampled_from(held))
            del holder[obj]
        else:
            obj = draw(st.sampled_from(variables))
        marked = op in ("r", "w") and draw(st.booleans())
        tokens.append(f"{thread}|{op}({obj})" + ("|*" if marked else ""))
        tid = ids[0].setdefault(thread, len(ids[0]))
        table = ids[2] if op in ("r", "w") else ids[1]
        target = table.setdefault(obj, len(table))
        expected.append((index, tid, _TOKENS.index(op), target, marked))
    text = "\n".join(tokens) + ("\n" if tokens else "")
    return text, expected


@st.composite
def critical_section_traces(draw):
    """Traces shaped like ``racelab gen`` output, as trace text.

    Each step lets one thread run a whole critical section (acquire, up to
    two accesses, release), open a section it keeps holding while others
    run (nesting up to two deep), close its innermost one, or access outside
    any lock.  Every open section is closed at the end.  Acquires pick among
    the free locks by recency of release, so index 0, the one Hypothesis
    shrinks to, takes the lock released last: a hand-off whenever another
    thread released it.  Accesses hit a few shared variables and carry
    random marks.  The sizes are drawn large enough that lock views are
    dropped and re-published between a thread's samples.
    """
    num_threads = draw(st.integers(3, 5))
    num_locks = draw(st.integers(3, 6))
    num_vars = draw(st.integers(1, 3))
    held = [[] for _ in range(num_threads)]  # per-thread lock stack
    free = list(range(num_locks))  # most recently released first
    lines = []

    def acquire(thread):
        lock = free.pop(draw(st.integers(0, len(free) - 1)))
        held[thread].append(lock)
        lines.append(f"T{thread}|acq(l{lock})")

    def release(thread):
        lock = held[thread].pop()
        free.insert(0, lock)
        lines.append(f"T{thread}|rel(l{lock})")

    def access(thread):
        op = draw(st.sampled_from("rw"))
        var = draw(st.integers(0, num_vars - 1))
        mark = "|*" if draw(st.booleans()) else ""
        lines.append(f"T{thread}|{op}(x{var}){mark}")

    for _ in range(draw(st.integers(30, 60))):
        thread = draw(st.integers(0, num_threads - 1))
        steps = ["access"]
        if free:
            steps += ["section"] * 3
            if len(held[thread]) < 2:
                steps += ["open"] * 2
        if held[thread]:
            steps.append("close")
        step = draw(st.sampled_from(steps))
        if step == "section":
            acquire(thread)
            for _ in range(draw(st.integers(0, 2))):
                access(thread)
            release(thread)
        elif step == "open":
            acquire(thread)
        elif step == "close":
            release(thread)
        else:
            access(thread)
    for thread in range(num_threads):
        while held[thread]:
            release(thread)
    return "\n".join(lines) + "\n"
