import pytest

import closure_oracle as closure
from conftest import (
    empty_trace,
    handoff_trace,
    random_traces,
    rows,
    run_prefix,
    skip_decisions,
    tally_deep_copies,
)
from invariants import checked_engine
from racelab import oracle
from racelab.differential import diff_report
from racelab.engines import create_engine
from racelab.engines.orderedlist import OrderedListEngine
from racelab.gen import GenConfig, generate_trace
from racelab.history import EXTENDED, SAMPLED_ONLY
from racelab.olist import OrderedList
from racelab.trace import REL, SamplingPolicy, Trace, apply_sampling, parse_trace


def test_ladder_skip_decisions_match_uclock(ladder_trace):
    results = {}
    for token in ("uclock", "orderedlist"):
        e = checked_engine(token, ladder_trace)
        results[token] = (skip_decisions(e, ladder_trace), e)
    assert results["uclock"][0] == results["orderedlist"][0]
    skipped, engine = results["orderedlist"]
    assert skipped[12] and skipped[14] and not skipped[8] and not skipped[18]
    assert engine.o_threads[1].snapshot() == [2, 0]


def _share(e, lock, lst):
    """Make ``lst`` lock ``lock``'s view, as a release would."""
    e.lock_views[lock].refs -= 1
    e.lock_views[lock] = lst
    lst.refs += 1


def test_freshness_gap_one_merge_visits_one_node():
    # Lock list published by t0, head entry (t0 : 9); freshness gap 15-14 = 1
    # so exactly the head is visited and exactly one set lands on t1's list.
    e = create_engine("orderedlist", empty_trace(6, 1, 1))
    donor = OrderedList(6)
    for tid, val in [(4, 1), (2, 3), (1, 6), (0, 9)]:  # head order: t0, t1, t2, t4
        donor.set(tid, val)
    own = e.o_threads[1]
    for tid, val in [(4, 1), (2, 3), (0, 8), (1, 18)]:
        own.set(tid, val)
    e.u_threads[1] = [14, 22, 3, 0, 1, 0]
    _share(e, 0, donor)
    e.last_releaser[0] = 0
    e.lock_freshness[0] = 15
    e._acquire(1, 1, 0, False)
    assert e.metrics.nodes_visited == 1
    assert e.o_threads[1].get(0) == 9
    assert e.u_threads[1][0] == 15
    assert e.u_threads[1][1] == 23
    assert e.metrics.entries_saved == 5  # six threads, one entry traversed


def _handoff(own_entries, view_entries, pending, epoch):
    """Three threads, two locks: t1 acquires lock 0 and returns the engine
    and t1's list from before the acquire.

    t1's list holds ``own_entries`` and its pending epoch ``pending``, and
    is shared through lock 1's view.  Lock 0 was last released by t0 with
    freshness 5, a view holding ``view_entries`` and the lock epoch
    ``epoch``; t1 knows t0 at freshness 4, so the walk visits the view's
    head only."""
    e = create_engine("orderedlist", empty_trace(3, 2, 1))
    own, view = e.o_threads[1], OrderedList(3)
    for lst, entries in ((own, own_entries), (view, view_entries)):
        for tid, time in entries:
            lst.set(tid, time)
    _share(e, 1, own)
    _share(e, 0, view)
    e.pending_local[1] = pending
    e.u_threads[1] = [4, 7, 0]
    e.last_releaser[0] = 0
    e.lock_freshness[0] = 5
    e.lock_epoch[0] = epoch
    e._acquire(1, 1, 0, False)
    return e, own


@pytest.mark.parametrize("own_time", [4, 5])
def test_own_entry_at_or_below_the_pending_epoch_merges_nothing(own_time):
    # The view's head, its only entry newer than t1's list, is t1's own
    # component; t1's pending epoch 5 already covers it, and the lock epoch
    # 2 is no news either.
    e, own = _handoff([(0, 2)], [(0, 2), (1, own_time)], pending=5, epoch=2)
    assert e.o_threads[1] is own and e.metrics.deep_copies == 0
    assert own.snapshot() == [2, 0, 0]  # the pending epoch is not folded
    assert e.pending_local[1] == 5
    assert e.u_threads[1] == [5, 7, 0]
    assert e.metrics.nodes_visited == 1


def test_prefix_sets_the_releasers_entry_below_the_lock_epoch():
    # The view holds t0's component 3, but t0's pending epoch 6 was
    # published as the lock epoch: the walk sets 3, then the epoch sets 6.
    e, own = _handoff([(0, 1)], [(0, 3)], pending=0, epoch=6)
    assert e.metrics.deep_copies == 1
    lst = e.o_threads[1]
    assert lst is not own and lst.snapshot() == [6, 0, 0] and own.get(0) == 1
    assert e.u_threads[1] == [5, 9, 0]  # two sets


def test_release_without_sample_on_shared_list_is_free():
    tr = parse_trace("T1|acq(l)\nT1|rel(l)\nT1|acq(l)\nT1|rel(l)")
    e = checked_engine("orderedlist", tr)
    e.run(tr)
    assert e.metrics.nodes_visited == 0
    assert e.metrics.deep_copies == 0
    assert e.metrics.shallow_copies == 2
    assert e.metrics.acquires_skipped == 2  # self hand-off always skips


def test_republishing_an_unchanged_list_needs_no_copy():
    # The lock's view is the thread's list itself: the second release drops
    # the lock's reference to the list and takes it again.
    tr = parse_trace("T1|w(x)|*\nT1|acq(l)\nT1|rel(l)\nT1|acq(l)\nT1|rel(l)")
    releases = [(index, t, lock) for index, t, kind, lock, _ in rows(tr) if kind == REL]
    assert len(releases) == 2
    for count, (index, t, lock) in enumerate(releases, start=1):
        e = run_prefix("orderedlist", tr, index, make=checked_engine)
        assert e.lock_views[lock] is e.o_threads[t]
        assert e.o_threads[t].refs == 2
        assert e.metrics.shallow_copies == count
        assert e.metrics.deep_copies == 0


def test_handoff_trace_skips_and_lazy_copies():
    tr = handoff_trace(100)
    e = checked_engine("orderedlist", tr)
    e.run(tr)
    assert e.metrics.skip_ratio >= 0.95
    assert e.metrics.shallow_copies == e.metrics.releases_total


def test_equivalence_with_sampling_engine():
    for marked, _ in random_traces(seed=61, count=120):
        ref = create_engine("sampling", marked)
        snaps_ref = []
        ref.on_event = lambda ev, eff: snaps_ref.append(eff)
        ref.run(marked)
        snaps = []
        e = checked_engine("orderedlist", marked, on_event=lambda ev, eff: snaps.append(eff))
        e.run(marked)
        assert e.racy_set() == ref.racy_set() == oracle.racy_events(marked)
        assert snaps == snaps_ref
        for t in range(marked.num_threads):
            # The conceptual clock: the list with the pending epoch folded in.
            clock = e.o_threads[t].snapshot()
            if e.pending_local[t]:
                clock[t] = e.pending_local[t]
            assert clock == ref.c_threads[t]


def test_copy_and_traversal_budgets():
    for marked, _ in random_traces(seed=63, count=100):
        s, t = marked.sample_size, marked.num_threads
        e = create_engine("orderedlist", marked)
        copies = tally_deep_copies(e, marked)
        e.run(marked)
        assert e.metrics.deep_copies == sum(copies) <= s * t + t
        assert max(copies, default=0) <= s + 1
        assert e.metrics.nodes_visited <= s * t * t


def test_instance_optimality_budget():
    for marked, _ in random_traces(seed=64, count=100):
        t = marked.num_threads
        vtwork = closure.clock_work(marked)
        e = create_engine("orderedlist", marked)
        e.run(marked)
        m = e.metrics
        assert m.deep_copies * t + m.nodes_visited <= 8 * (vtwork * t + t)


def test_empty_sample_set_never_merges(ladder_trace):
    tr = apply_sampling(ladder_trace, SamplingPolicy.bernoulli(0.0, 0))
    e = checked_engine("orderedlist", tr)
    e.run(tr)
    assert e.metrics.acquires_skipped == e.metrics.acquires_total
    assert e.metrics.deep_copies == 0
    assert all(o.snapshot() == [0, 0] for o in e.o_threads)


# Trace 535 of the acceptance suite at rate 0.1, shrunk to 20 events.  At e14
# T5 acquires l4 and merges T3's entry.  T5's list was published at e6, but
# T2's release of l5 at e10 dropped that view, so T5 unshares in place.  Its
# pending epoch (from the sampled write at e2) must be folded there, exactly as
# on a deep copy.  Folded later instead, it lands ahead of T3's entry, so T2's
# acquire of l7 at e19 walks a two-entry prefix that misses T3, and in extended
# mode T2's read at e20 looks unordered after T3's write at e4.
UNSHARE_FOLD_TEXT = "\n".join([
    "T3|acq(l7)", "T5|w(x1)|*", "T2|w(x4)|*", "T3|w(x0)|*", "T5|acq(l5)",
    "T5|rel(l5)", "T3|acq(l4)", "T2|acq(l5)", "T3|rel(l4)", "T2|rel(l5)",
    "T2|acq(l3)", "T2|rel(l3)", "T3|acq(l3)", "T5|acq(l4)", "T5|rel(l4)",
    "T3|rel(l7)", "T5|acq(l7)", "T5|rel(l7)", "T2|acq(l7)", "T2|r(x0)",
])


def test_unshare_path_folds_pending_epoch():
    tr = parse_trace(UNSHARE_FOLD_TEXT)
    assert len(tr) == 20
    for mode in (SAMPLED_ONLY, EXTENDED):
        assert diff_report(tr, mode)["verdict"] == "EQUIVALENT"
        assert oracle.racy_events(tr, mode) == set()
        e = checked_engine("orderedlist", tr, mode=mode)
        e.run(tr)
        assert e.racy_set() == set(), mode


def test_whole_trace_diff_catches_the_unshare_fold_bug(monkeypatch):
    # The bug UNSHARE_FOLD_TEXT pins, planted back: the pending epoch is
    # folded on the deep-copy path only.  On the seed-1 sync-heavy benchmark
    # trace the first 6000 events, what the benchmark's gate diffs, still
    # read EQUIVALENT; the whole trace's timestamps diverge at e19399.
    def fold_on_copy_only(self, thread):
        lst = self.o_threads[thread]
        if lst.refs > 1:
            fresh = lst.deep_copy()
            lst.refs -= 1
            self.o_threads[thread] = fresh
            self.metrics.deep_copies += 1
            self.metrics.full_traversals += 1
            if self.pending_local[thread]:
                fresh.set(thread, self.pending_local[thread])
                self.pending_local[thread] = 0
        return self.o_threads[thread]

    monkeypatch.setattr(OrderedListEngine, "_ensure_exclusive", fold_on_copy_only)
    config = GenConfig(threads=64, locks=64, vars=256, events=25_000, p_sync=0.8,
                       contention=0.0, accesses_per_cs=1.0)
    tr = apply_sampling(generate_trace(config, 1), SamplingPolicy.bernoulli(0.03, 1))
    head = Trace(tr.threads[:6000], tr.kinds[:6000], tr.targets[:6000], tr.marks[:6000],
                 tr.num_threads, tr.num_locks, tr.num_vars)
    assert diff_report(head, SAMPLED_ONLY)["verdict"] == "EQUIVALENT"
    whole = diff_report(tr, SAMPLED_ONLY)
    assert (whole["verdict"], whole["field"], whole["engine"], whole["event_index"]) == (
        "DIVERGENT", "snapshot", "orderedlist", 19399
    )

def test_refcount_invariant_holds_after_every_event():
    # The checker asserts refs == 1 + live views after every event.
    for marked, _ in random_traces(seed=65, count=100):
        for mode in (SAMPLED_ONLY, EXTENDED):
            e = checked_engine("orderedlist", marked, mode=mode)
            e.run(marked)
            for lst in e.o_threads:
                views = sum(v is lst for v in e.lock_views)
                assert lst.refs == 1 + views


def test_ping_pong_unshares_instead_of_copying():
    # Two threads alternate over one lock with a sampled write in each of five
    # critical sections.  Each acquirer's list was published at its previous
    # release, but that view was replaced by the other thread's release in
    # between, so the merge unshares in place: no deep copies, where a shared
    # flag that only a deep copy clears costs 3.
    lines = []
    for thread in ("T1", "T2", "T1", "T2", "T1"):
        lines += [f"{thread}|acq(l)", f"{thread}|w(x)|*", f"{thread}|rel(l)"]
    tr = parse_trace("\n".join(lines))
    assert len(tr) == 15
    e = checked_engine("orderedlist", tr)
    e.run(tr)
    m = e.metrics
    assert m.deep_copies == 0
    assert (m.nodes_visited, m.shallow_copies, m.acquires_skipped) == (7, 5, 1)
    assert e.racy_set() == oracle.racy_events(tr) == set()
