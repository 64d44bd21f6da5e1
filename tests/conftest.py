"""Shared fixtures: golden traces and random-config helpers."""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import strategies as st

from racelab.gen import GenConfig, generate_trace
from racelab.trace import (
    Event,
    OpKind,
    SamplingPolicy,
    Trace,
    apply_sampling,
    parse_trace,
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


def empty_trace(threads: int, locks: int, variables: int) -> Trace:
    """A trace with no events and the given dimensions, to size an engine."""
    return Trace(array("i"), array("b"), array("i"), b"", threads, locks, variables)


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
    """Lock-discipline-respecting event lists in file tokens, with the Events
    a parse must produce (dense ids by first appearance)."""
    names = ["T1", "T2", "T3"]
    locks = ["l1", "l2"]
    variables = ["x", "y", "z"]
    holder = {}
    tokens, ids = [], ({}, {}, {})
    events = []
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
        events.append(Event(index, tid, OpKind(op), target, marked))
    text = "\n".join(tokens) + ("\n" if tokens else "")
    return text, tuple(events)



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
