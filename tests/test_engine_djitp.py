from conftest import L1, random_traces, run_prefix
from racelab import oracle
from racelab.engines import create_engine
from racelab.history import WRITE_WRITE
from racelab.trace import parse_trace


def test_ladder_clock_checkpoints(ladder_trace):
    e = run_prefix("djitp", ladder_trace, 6)
    # after e6 (release of l1): epoch advanced, lock carries the copy
    assert e._effective(0) == [2, 0]
    assert e.epochs[0] == 2
    assert e.c_locks[L1] == [1, 0]
    e = run_prefix("djitp", ladder_trace, 8)
    assert e._effective(1) == [1, 1]  # e8 joined l1's clock


def test_unordered_writes_race():
    tr = parse_trace("T1|w(x)\nT2|w(x)")
    e = create_engine("djitp", tr)
    e.run(tr)
    assert e.racy_set() == {(2, WRITE_WRITE)} == oracle.racy_events_full(tr)


def test_lock_ordered_writes_do_not_race():
    tr = parse_trace("T1|acq(l)\nT1|w(x)\nT1|rel(l)\nT2|acq(l)\nT2|w(x)")
    e = create_engine("djitp", tr)
    assert e.run(tr) == []


def test_racy_set_matches_full_oracle_on_random_traces():
    for marked, _ in random_traces(seed=31, count=120):
        e = create_engine("djitp", marked)
        e.run(marked)
        assert e.racy_set() == oracle.racy_events_full(marked)


def test_per_event_clock_equals_declarative_causal_timestamp():
    for marked, _ in random_traces(seed=32, count=60):
        tables = oracle.declarative_timestamps(marked)
        snaps = []
        e = create_engine("djitp", marked, on_event=lambda ev, eff: snaps.append(eff))
        e.run(marked)
        for pos in range(len(marked)):
            assert snaps[pos] == tables.ct_ft[pos]


def test_marks_are_ignored(ladder_trace, ladder_all_marked):
    a = create_engine("djitp", ladder_trace)
    b = create_engine("djitp", ladder_all_marked)
    a.run(ladder_trace)
    b.run(ladder_all_marked)
    assert a.racy_set() == b.racy_set()
    assert a.c_threads == b.c_threads
