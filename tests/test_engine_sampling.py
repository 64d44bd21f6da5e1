import closure_oracle as closure
from conftest import L1, L2, L4, random_traces, rows, run_prefix
from racelab import oracle
from racelab.engines import create_engine
from racelab.trace import SamplingPolicy, apply_sampling


def test_ladder_sampling_trajectory(ladder_trace):
    # e6 is the first release after sampled e5: fold + increment + copy
    e = run_prefix("sampling", ladder_trace, 6)
    assert e.epochs[0] == 2
    assert e.c_threads[0] == [1, 0]
    assert e.c_locks[L1] == [1, 0]
    # e10 is not preceded by a new sample: no increment, plain copy
    e = run_prefix("sampling", ladder_trace, 10)
    assert e.epochs[0] == 2
    assert e.c_locks[L2] == [1, 0]
    # e17 consumes samples e15/e16
    e = run_prefix("sampling", ladder_trace, 17)
    assert e.epochs[0] == 3
    assert e.c_threads[0] == [2, 0]
    assert e.c_locks[L4] == [2, 0]
    assert run_prefix("sampling", ladder_trace, 18).c_threads[1] == [2, 0]


def test_empty_sample_set_everything_stays_bottom(ladder_trace):
    tr = apply_sampling(ladder_trace, SamplingPolicy.bernoulli(0.0, 0))
    e = create_engine("sampling", tr)
    assert e.run(tr) == []
    assert all(c == [0, 0] for c in e.c_threads)
    assert all(c == [0, 0] for c in e.c_locks)
    assert e.epochs == [1, 1]
    assert e.metrics.epoch_increments == 0


def test_full_rate_agrees_with_djitp():
    for marked, rate in random_traces(seed=41, count=100):
        full = apply_sampling(marked, SamplingPolicy.bernoulli(1.0, 0))
        a = create_engine("sampling", full)
        b = create_engine("djitp", full)
        a.run(full)
        b.run(full)
        assert a.racy_set() == b.racy_set()


def test_per_event_effective_snapshot_equals_declarative():
    for marked, _ in random_traces(seed=42, count=60):
        tables = closure.declarative_timestamps(marked)
        snaps = []
        e = create_engine("sampling", marked, on_event=lambda ev, eff: snaps.append(eff))
        e.run(marked)
        assert len(snaps) == len(marked)
        for index, thread, *_ in rows(marked):
            assert snaps[index - 1] == tables.ct_smp_effective(index, thread)


def test_racy_set_matches_oracle():
    for marked, _ in random_traces(seed=43, count=120):
        e = create_engine("sampling", marked, debug=True)
        e.run(marked)
        assert e.racy_set() == oracle.racy_events(marked)


def test_epoch_increment_and_component_sum_bounds():
    for marked, _ in random_traces(seed=44, count=80):
        e = create_engine("sampling", marked)
        e.run(marked)
        s = marked.sample_size
        assert e.metrics.epoch_increments <= s
        for clock in e.c_threads + e.c_locks:
            assert sum(clock) <= s
        for t in range(marked.num_threads):
            assert e.c_threads[t][t] < e.epochs[t]
