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
from racelab.engines import create_engine, observe
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


def _publish(e, lock, view, releaser=0, freshness=0, epoch=0):
    """Make ``(view, releaser, freshness, epoch)`` lock ``lock``'s record,
    with the references a release would leave."""
    e.published[lock][0].refs -= 1
    e.published[lock] = (view, releaser, freshness, epoch)
    view.refs += 1


def test_freshness_gap_one_merge_visits_one_node():
    # Lock list published by t0 at epoch 9, head entry (t1 : 6); freshness
    # gap 15-14 = 1, so exactly the head is visited.  It is no news to t1,
    # and the lock epoch lands as the one set on t1's list.
    e = create_engine("orderedlist", empty_trace(6, 1, 1))
    donor = OrderedList(6, 0)
    for tid, val in [(4, 1), (2, 3), (1, 6)]:  # head order: t1, t2, t4
        donor.set(tid, val)
    donor.times[0] = 9  # t0's own entry, private to t0
    own = e.o_threads[1]
    for tid, val in [(4, 1), (2, 3), (0, 8)]:
        own.set(tid, val)
    own.times[1] = 18
    e.epochs[1] = 19  # 18 is t1's last folded epoch
    e.u_threads[1] = [14, 22, 3, 0, 1, 0]
    _publish(e, 0, donor, releaser=0, freshness=15, epoch=9)
    e._acquire(1, 1, 0, False)
    assert e.metrics.nodes_visited == 1
    assert e.o_threads[1].times[0] == 9
    assert e.u_threads[1][0] == 15
    assert e.u_threads[1][1] == 23
    assert e.metrics.entries_saved == 4  # five linked entries, one traversed


def _handoff(own_entries, view_entries, last, epoch, releaser_own):
    """Three threads, two locks: t1 acquires lock 0 and returns the engine
    and t1's list from before the acquire.

    t1's list holds ``own_entries`` and its own entry ``last``, t1's last
    folded epoch, and is shared through lock 1's view.  Lock 0 was last
    released by t0 with freshness 5 and the lock epoch ``epoch``; its view
    is t0's list, holding ``view_entries`` and t0's own entry
    ``releaser_own``.  t1 knows t0 at freshness 4, so the walk visits the
    view's head only."""
    e = create_engine("orderedlist", empty_trace(3, 2, 1))
    own, view = e.o_threads[1], OrderedList(3, 0)
    for lst, entries in ((own, own_entries), (view, view_entries)):
        for tid, time in entries:
            lst.set(tid, time)
    own.times[1], view.times[0] = last, releaser_own
    _publish(e, 1, own)
    _publish(e, 0, view, releaser=0, freshness=5, epoch=epoch)
    e.epochs[1] = last + 1
    e.u_threads[1] = [4, 7, 0]
    e._acquire(1, 1, 0, False)
    return e, own


@pytest.mark.parametrize("own_time", [4, 5])
def test_own_entry_at_or_below_the_last_folded_epoch_merges_nothing(own_time):
    # The view's head is t1's component, which t1's own entry, its last
    # folded epoch 5, already covers; the lock epoch 2 is no news either.
    e, own = _handoff([(0, 2)], [(1, own_time)], last=5, epoch=2, releaser_own=2)
    assert e.o_threads[1] is own and e.metrics.deep_copies == 0
    assert own.snapshot() == [2, 5, 0]
    assert e.u_threads[1] == [5, 7, 0]
    assert e.metrics.nodes_visited == 1


def _walk_traces():
    """conftest's random traces and small generator traces, each at rates
    0.003 to 1.0."""
    traces = [tr for tr, _ in random_traces(seed=66, count=100)]
    for i, (threads, locks, p_sync) in enumerate([(8, 4, 0.3), (8, 8, 0.8), (64, 64, 0.8)]):
        config = GenConfig(threads=threads, locks=locks, vars=16, events=5000, p_sync=p_sync,
                           contention=0.3, accesses_per_cs=1.0)
        traces.append(generate_trace(config, i + 1))
    for tr in traces:
        for rate in (0.003, 0.03, 0.3, 1.0):
            yield apply_sampling(tr, SamplingPolicy.bernoulli(rate, 1))


def test_the_prefix_walk_is_exact_and_its_own_entries_are_stale(monkeypatch):
    # At every acquire that is not skipped, walking the lock's whole list
    # finds no newer entry that the d-entry prefix missed, so the walk may
    # stop at d entries.  The acquirer's own entry is never newer than its
    # own time, so it appears in neither walk.  The releaser's entry, which
    # the view does not link, may be newer: the lock epoch carries it.
    walk = OrderedList.newer_in_prefix
    current = [None]  # the engine running
    seen = {"walks": 0, "cut": 0, "releaser": 0}

    def spy(view, k, other):
        engine = current[0]
        t = next(t for t, lst in enumerate(engine.o_threads) if lst is other)
        lr = next(lr for v, lr, *_ in engine.published if v is view)
        pairs = walk(view, k, other)
        full = walk(view, engine.num_threads, other)
        assert pairs == full[:len(pairs)] and set(pairs) == set(full), (k, pairs, full)
        assert t not in [tid for tid, _ in full], (t, full)
        seen["walks"] += 1
        seen["cut"] += k < engine.num_threads - 1
        seen["releaser"] += view.times[lr] > other.times[lr]
        return pairs

    monkeypatch.setattr(OrderedList, "newer_in_prefix", spy)
    for tr in _walk_traces():
        for mode in (SAMPLED_ONLY, EXTENDED):
            current[0] = engine = create_engine("orderedlist", tr, mode=mode)
            engine.run(tr)
    # Walks shorter than the list, and releasers newer than the acquirer,
    # both occur.
    assert min(seen.values()) > 0, seen


def test_only_the_lock_epoch_sets_the_releasers_entry():
    # t0 released lock 0 at epoch 6, the lock epoch, and has folded epoch 7
    # into its own entry since.  The walk visits the view's head, t2's
    # entry, and never t0's; the lock epoch sets t0's component to 6.
    e, own = _handoff([(0, 1)], [(2, 4)], last=0, epoch=6, releaser_own=7)
    assert e.metrics.deep_copies == 1
    lst = e.o_threads[1]
    assert lst is not own and lst.snapshot() == [6, 0, 4] and own.times[0] == 1
    assert e.u_threads[1] == [5, 9, 0]  # one set for each of two components


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
        assert e.published[lock][0] is e.o_threads[t]
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
        observe(ref, lambda ev, eff: snaps_ref.append(eff))
        ref.run(marked)
        snaps = []
        e = checked_engine("orderedlist", marked)
        observe(e, lambda ev, eff: snaps.append(eff))
        e.run(marked)
        assert e.racy_set() == ref.racy_set() == oracle.racy_events(marked)
        assert snaps == snaps_ref
        assert [lst.snapshot() for lst in e.o_threads] == ref.c_threads


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


# Trace 535 of the acceptance suite at rate 0.1, shrunk to 20 events: a
# regression trace from when a list took its thread's epoch only when it next
# changed.  At e14 T5 acquires l4 and merges T3's entry.  T5's list was
# published at e6, but T2's release of l5 at e10 dropped that view, so T5
# unshares in place.  Had T5's epoch from the sampled write at e2 entered the
# list's move-to-front order after T3's entry, T2's acquire of l7 at e19
# would walk a two-entry prefix that misses T3, and in extended mode T2's
# read at e20 would look unordered after T3's write at e4.
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


def test_whole_trace_diff_catches_a_capped_prefix_walk(monkeypatch):
    # A prefix walk that stops at 16 entries, however long the freshness
    # gap: an acquire then misses older changes of the releaser's list.  On
    # the seed-1 sync-heavy benchmark trace the first 6000 events, what the
    # benchmark's gate diffs, still read EQUIVALENT; the whole trace's
    # timestamps diverge at e7534.
    walk = OrderedList.newer_in_prefix
    monkeypatch.setattr(OrderedList, "newer_in_prefix",
                        lambda view, k, other: walk(view, min(k, 16), other))
    config = GenConfig(threads=64, locks=64, vars=256, events=25_000, p_sync=0.8,
                       contention=0.0, accesses_per_cs=1.0)
    tr = apply_sampling(generate_trace(config, 1), SamplingPolicy.bernoulli(0.03, 1))
    head = Trace(tr.threads[:6000], tr.kinds[:6000], tr.targets[:6000], tr.marks[:6000],
                 tr.num_threads, tr.num_locks, tr.num_vars)
    assert diff_report(head, SAMPLED_ONLY)["verdict"] == "EQUIVALENT"
    whole = diff_report(tr, SAMPLED_ONLY)
    assert (whole["verdict"], whole["field"], whole["engine"], whole["event_index"]) == (
        "DIVERGENT", "snapshot", "orderedlist", 7534
    )


def test_refcount_invariant_holds_after_every_event():
    # The checker asserts refs == 1 + live views after every event.
    for marked, _ in random_traces(seed=65, count=100):
        for mode in (SAMPLED_ONLY, EXTENDED):
            e = checked_engine("orderedlist", marked, mode=mode)
            e.run(marked)
            for lst in e.o_threads:
                views = sum(v is lst for v, *_ in e.published)
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
    assert (m.nodes_visited, m.shallow_copies, m.acquires_skipped) == (4, 5, 1)
    assert e.racy_set() == oracle.racy_events(tr) == set()
