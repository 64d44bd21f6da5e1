import closure_oracle as closure
from conftest import empty_trace, handoff_trace, random_traces, skip_decisions
from racelab import oracle
from racelab.engines import create_engine
from racelab.trace import SamplingPolicy, apply_sampling


def test_ladder_skip_decisions_and_final_clocks(ladder_trace):
    e = create_engine("uclock", ladder_trace)
    skips = skip_decisions(e, ladder_trace)
    # e12 and e14 carry no new information; e8 and e18 do.
    assert skips[12] and skips[14]
    assert not skips[8] and not skips[18]
    # the first four acquires see never-released locks
    assert all(skips[i] for i in (1, 2, 3, 4))
    assert e.c_threads[1] == [2, 0]
    assert e.metrics.acquires_total == 8
    assert e.metrics.acquires_skipped == 6


def test_freshness_gap_one_updates_single_entry():
    # Six-thread pre-state: the lock was last released by t0 whose freshness
    # for itself (15) exceeds t1's knowledge (14), so the join runs but only
    # one component of t1's clock actually updates.
    e = create_engine("uclock", empty_trace(6, 1, 1))
    e.c_threads[0] = [9, 6, 3, 0, 1, 0]
    e.u_threads[0] = [15, 12, 4, 0, 1, 0]
    e.c_threads[1] = [8, 18, 3, 0, 1, 0]
    e.u_threads[1] = [14, 22, 3, 0, 1, 0]
    e.c_locks[0] = [9, 6, 3, 0, 1, 0]
    e.u_locks[0] = [15, 12, 4, 0, 1, 0]
    e.last_releaser[0] = 0
    e._acquire(1, 1, 0, False)
    assert e.c_threads[1] == [9, 18, 3, 0, 1, 0]
    assert e.metrics.acquires_skipped == 0
    assert e.u_threads[1][0] == 15
    assert e.u_threads[1][1] == 23  # exactly one component change counted


def test_empty_sample_set_skips_everything(ladder_trace):
    tr = apply_sampling(ladder_trace, SamplingPolicy.bernoulli(0.0, 0))
    e = create_engine("uclock", tr)
    e.run(tr)
    assert e.metrics.acquires_skipped == e.metrics.acquires_total == 8
    assert e.metrics.releases_copied == 0
    assert all(c == [0, 0] for c in e.c_threads + e.c_locks)


def test_handoff_trace_skips_nearly_all_acquires():
    tr = handoff_trace(100)
    e = create_engine("uclock", tr, debug=True)
    e.run(tr)
    assert e.metrics.skip_ratio >= 0.95
    assert e.metrics.releases_copied == 2


def test_equivalence_with_sampling_engine():
    for marked, _ in random_traces(seed=51, count=120):
        a = create_engine("sampling", marked)
        b = create_engine("uclock", marked, debug=True)
        snaps_a, snaps_b = [], []
        a.on_event = lambda ev, eff: snaps_a.append(eff)
        b.on_event = lambda ev, eff: snaps_b.append(eff)
        a.run(marked)
        b.run(marked)
        assert a.racy_set() == b.racy_set() == oracle.racy_events(marked)
        # skipping never changes any clock value: the trajectories coincide
        # with the never-skipping engine's at every event
        assert snaps_a == snaps_b
        assert a.c_threads == b.c_threads


def test_freshness_soundness_per_event():
    for marked, _ in random_traces(seed=52, count=60):
        tables = closure.declarative_timestamps(marked)
        e = create_engine("uclock", marked)
        seen = []  # the acting thread's freshness clock after each event
        e.on_event = lambda index, eff: seen.append(list(e.u_threads[marked.threads[index - 1]]))
        e.run(marked)
        assert len(seen) == len(marked)
        for pos, (ut, thread) in enumerate(zip(seen, marked.threads)):
            assert ut[thread] == tables.vt_replay[pos]
            assert all(a <= b for a, b in zip(ut, tables.u_replay[pos]))


def test_traversal_budget():
    for marked, _ in random_traces(seed=53, count=80):
        e = create_engine("uclock", marked)
        e.run(marked)
        s, t, l = marked.sample_size, marked.num_threads, marked.num_locks
        assert e.metrics.full_traversals <= 4 * s * t * (t + l)
