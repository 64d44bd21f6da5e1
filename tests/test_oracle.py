"""The oracle itself is cross-checked against an independent O(n^3) closure."""

import itertools
import random

import pytest

from conftest import random_config, random_traces, rows
from racelab import oracle
from racelab.history import EXTENDED, SAMPLED_ONLY, WRITE_WRITE
from racelab.gen import generate_trace
from racelab.trace import ACQ, REL, SamplingPolicy, apply_sampling, parse_trace


def floyd_warshall_hb(tr):
    """Reference closure: explicit edge set + O(n^3) transitive closure."""
    n = len(tr)
    reach = [[i == j for j in range(n)] for i in range(n)]
    last_by_thread = {}
    releases_by_lock = {}
    for pos, (_, thread, kind, target, _) in enumerate(rows(tr)):
        if thread in last_by_thread:
            reach[last_by_thread[thread]][pos] = True
        last_by_thread[thread] = pos
        if kind == ACQ:
            for r in releases_by_lock.get(target, ()):  # every earlier release
                reach[r][pos] = True
        elif kind == REL:
            releases_by_lock.setdefault(target, []).append(pos)
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return reach


def test_ladder_hb_facts(ladder_trace):
    hb = oracle.hb_closure(ladder_trace)
    assert hb.ordered(5, 9)  # via the l1 hand-off
    assert hb.ordered(5, 7)  # thread order
    assert not hb.ordered(7, 9)
    assert hb.ordered(5, 5)  # reflexive


def test_single_thread_is_total_order():
    tr = parse_trace("T1|w(a)\nT1|r(a)\nT1|w(b)")
    hb = oracle.hb_closure(tr)
    for i, j in itertools.combinations(range(1, 4), 2):
        assert hb.ordered(i, j)


def test_two_threads_no_locks_are_disjoint_chains():
    tr = parse_trace("T1|w(a)\nT2|w(a)\nT1|r(a)\nT2|r(a)")
    hb = oracle.hb_closure(tr)
    assert hb.ordered(1, 3) and hb.ordered(2, 4)
    assert not hb.ordered(1, 2) and not hb.ordered(1, 4)
    assert not hb.ordered(2, 3)


def test_closure_matches_floyd_warshall():
    rng = random.Random(71)
    for i in range(30):
        cfg = random_config(rng, max_events=50)
        tr = generate_trace(cfg, 900 + i)
        hb = oracle.hb_closure(tr)
        ref = floyd_warshall_hb(tr)
        n = len(tr)
        for a in range(n):
            for b in range(n):
                assert hb.ordered(a + 1, b + 1) == ref[a][b]


def test_ladder_tables(ladder_trace):
    tb = oracle.declarative_timestamps(ladder_trace)
    # e7's local time counts the sample-consuming release e6
    assert tb.lt_smp[6] == 2
    # e18's sampling timestamp knows both of t0's folded epochs
    assert tb.ct_smp[17] == [2, 0]
    assert tb.ct_ft[7] == [1, 1]  # e8 in the full-detector world
    assert tb.vtwork == 8


def test_rel_after_positions(ladder_trace):
    assert oracle.rel_after_positions(ladder_trace) == {6, 17}


def test_empty_sample_set_tables(ladder_trace):
    tr = apply_sampling(ladder_trace, SamplingPolicy.bernoulli(0.0, 0))
    tb = oracle.declarative_timestamps(tr)
    assert all(row == [0, 0] for row in tb.ct_smp)
    assert all(row == [0, 0] for row in tb.u)
    assert tb.vtwork == 0


def test_racy_events_ladder(ladder_trace, ladder_all_marked):
    assert oracle.racy_events(ladder_trace, SAMPLED_ONLY) == set()
    assert oracle.racy_events(ladder_trace, EXTENDED) == set()
    assert (9, WRITE_WRITE) in oracle.racy_events(ladder_all_marked, SAMPLED_ONLY)
    none = apply_sampling(ladder_trace, SamplingPolicy.bernoulli(0.0, 0))
    assert oracle.racy_events(none, SAMPLED_ONLY) == set()
    assert oracle.racy_events(none, EXTENDED) == set()


def test_racy_events_rejects_bad_input(ladder_trace):
    with pytest.raises(ValueError):
        oracle.racy_events(ladder_trace, "bogus")


def test_sampling_timestamp_component_sum_is_bounded():
    for marked, _ in random_traces(seed=72, count=60):
        tb = oracle.declarative_timestamps(marked)
        s = marked.sample_size
        assert all(sum(row) <= s for row in tb.ct_smp)


def test_monotonicity_of_freshness_implies_clock_order():
    # Props on small random traces; the exhaustive pass lives in acceptance.
    for marked, _ in random_traces(seed=73, count=40):
        tb = oracle.declarative_timestamps(marked)
        hb = oracle.hb_closure(marked)
        n = len(marked)
        for a in range(n):
            ta = marked.threads[a]
            for b in range(n):
                if marked.threads[b] == ta:
                    continue
                if tb.u[a][ta] <= tb.u[b][ta]:
                    assert all(x <= y for x, y in zip(tb.ct_smp[a], tb.ct_smp[b]))
                k = tb.u[a][ta] - tb.u[b][ta]
                exceed = sum(x > y for x, y in zip(tb.ct_smp[a], tb.ct_smp[b]))
                assert exceed <= min(marked.num_threads, max(k, 0))
                if marked.marks[a]:
                    scalar = tb.ct_smp[a][ta] <= tb.ct_smp[b][ta]
                    full = all(x <= y for x, y in zip(tb.ct_smp[a], tb.ct_smp[b]))
                    assert scalar == full == hb.ordered(a + 1, b + 1)


def test_clock_work_scalar(ladder_trace):
    assert oracle.clock_work(ladder_trace) == 8
    all_marked = apply_sampling(ladder_trace, SamplingPolicy.bernoulli(1.0, 0))
    assert oracle.clock_work(all_marked) >= 8
