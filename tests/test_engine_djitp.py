import closure_oracle as closure
from conftest import L1, random_traces, run_prefix
from racelab import oracle
from racelab.engines import create_engine, observe
from racelab.history import EXTENDED, SAMPLED_ONLY, WRITE_WRITE
from racelab.trace import parse_trace


def test_ladder_clock_checkpoints(ladder_trace):
    e = run_prefix("djitp", ladder_trace, 6)
    # after e6 (release of l1): epoch 1 folded in and advanced, lock carries the copy
    assert e.c_threads[0] == e.c_locks[L1] == [1, 0]
    assert e.epochs[0] == 2
    e = run_prefix("djitp", ladder_trace, 8)
    assert e.c_threads[1] == [1, 0]  # e8 joined l1's clock
    assert e.epochs[1] == 1


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
        tables = closure.declarative_timestamps(marked)
        snaps = []
        e = create_engine("djitp", marked)
        observe(e, lambda ev, eff: snaps.append(eff))
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


def test_history_mode_changes_nothing(ladder_trace):
    # Djit+ marks every access, so no access is left for extended mode to
    # check: both modes build sampled-only histories and give the same run.
    for tr in [ladder_trace] + [marked for marked, _ in random_traces(seed=33, count=60)]:
        runs = []
        for mode in (SAMPLED_ONLY, EXTENDED):
            snaps = []
            e = create_engine("djitp", tr, mode=mode)
            observe(e, lambda *snap: snaps.append(snap))
            e.run(tr)
            assert not e.histories.extended
            runs.append((e.reports, e.metrics.as_dict(), snaps))
        assert runs[0] == runs[1]
