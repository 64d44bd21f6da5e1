"""Race checks against the brute-force oracle and by hand."""

import tracemalloc

from conftest import random_traces, trace_text
from racelab import differential, oracle
from racelab.engines import create_engine
from racelab.history import (
    EXTENDED,
    READ_WRITE,
    SAMPLED_ONLY,
    WRITE_READ,
    WRITE_WRITE,
    AccessHistories,
    render_reports,
)
from racelab.trace import parse_trace


def run(text, engine="sampling", mode=SAMPLED_ONLY):
    tr = parse_trace(text)
    e = create_engine(engine, tr, mode=mode)
    e.run(tr)
    return e.racy_set()


def test_minimal_conflicting_pair():
    text = "T1|w(x)|*\nT2|w(x)|*"
    got = run(text)
    assert got == {(2, WRITE_WRITE)}
    assert got == oracle.racy_events(parse_trace(text))


def test_ladder_premarked_has_no_races(ladder_trace):
    # e5 is ordered before the only conflicting later event via the lock
    # hand-off; e15/e16 have no later conflicting event.
    assert run(trace_text(ladder_trace)) == set()
    assert run(trace_text(ladder_trace), mode=EXTENDED) == set()
    assert oracle.racy_events(ladder_trace, SAMPLED_ONLY) == set()
    assert oracle.racy_events(ladder_trace, EXTENDED) == set()


def test_ladder_all_marked_races_at_e9(ladder_all_marked):
    e = create_engine("sampling", ladder_all_marked)
    e.run(ladder_all_marked)
    assert (9, WRITE_WRITE) in e.racy_set()  # e9 conflicts with unordered e7


def test_two_reads_do_not_race():
    assert run("T1|r(x)|*\nT2|r(x)|*") == set()


def test_read_write_and_write_read_kinds():
    assert run("T1|r(x)|*\nT2|w(x)|*") == {(2, READ_WRITE)}
    assert run("T1|w(x)|*\nT2|r(x)|*") == {(2, WRITE_READ)}


def test_same_thread_history_is_never_racy():
    # The effective-timestamp rule: a thread's own earlier sampled accesses
    # are thread-ordered, so no race may be reported against them even though
    # the raw clock lags the epoch between a sample and the next release.
    assert run("T1|w(x)|*\nT1|w(x)|*\nT1|r(x)|*") == set()


def test_extended_mode_checks_unmarked_first_access():
    text = "T1|w(x)|*\nT2|w(x)\nT2|w(x)"
    assert run(text, mode=SAMPLED_ONLY) == set()
    # only the first unmarked write of T2 after the sampled write is checked
    assert run(text, mode=EXTENDED) == {(2, WRITE_WRITE)}
    assert oracle.racy_events(parse_trace(text), EXTENDED) == {(2, WRITE_WRITE)}


def test_extended_mode_unmarked_reads():
    text = "T1|w(x)|*\nT2|r(x)\nT2|r(x)"
    assert run(text, mode=EXTENDED) == {(2, WRITE_READ)}


def test_extended_mode_never_updates_histories_from_unmarked():
    # T2's unmarked write must not become the write history: T3 would
    # otherwise be blamed against it instead of the sampled e1.
    text = "T1|w(x)|*\nT2|acq(l)\nT2|w(x)\nT2|rel(l)\nT3|acq(l)\nT3|w(x)"
    got = run(text, mode=EXTENDED)
    assert got == {(3, WRITE_WRITE), (6, WRITE_WRITE)}
    assert got == oracle.racy_events(parse_trace(text), EXTENDED)


def test_extended_mode_rechecks_a_write_after_a_marked_event_that_keeps_the_max(monkeypatch):
    # T2's unmarked e2 is checked against the one marked event, T1's read.
    # T3's marked write makes two, but max(gen_r, gen_w) stays 1: a watermark
    # of the larger count would skip e4, which races both marked events.
    tr = parse_trace("T1|r(x)|*\nT2|w(x)\nT3|w(x)|*\nT2|w(x)")
    sampled = {(2, READ_WRITE), (3, READ_WRITE), (4, READ_WRITE), (4, WRITE_WRITE)}
    assert oracle.racy_events(tr, EXTENDED) == sampled
    full = oracle.racy_events_full(tr)  # djitp samples every access
    assert full == sampled | {(3, WRITE_WRITE)}
    tokens = ["sampling", "uclock", "orderedlist", "djitp"]
    assert list(differential.CONFIGS) == tokens
    for token in tokens:
        engine = create_engine(token, tr, mode=EXTENDED)
        engine.run(tr)
        assert engine.racy_set() == (full if token == "djitp" else sampled), token
        assert engine.histories.race_checks == 4, token
    # diff runs exactly the four engines, one each, in that order.
    built = []

    def spy(token, *args, **kwargs):
        built.append(token)
        return create_engine(token, *args, **kwargs)

    monkeypatch.setattr(differential, "create_engine", spy)
    assert differential.diff_report(tr, EXTENDED)["verdict"] == "EQUIVALENT"
    assert built == tokens


def test_check_and_update_appends_to_the_list_it_is_given():
    # T1 reads then writes x, both marked; T2's unordered write races both.
    h = AccessHistories(1, 2, SAMPLED_ONLY)
    earlier = (1, 0, WRITE_READ)
    reports = [earlier]
    assert h.check_and_update(2, 0, 0, False, [1, 0], 1, True, reports) is None
    assert h.check_and_update(3, 0, 0, True, [1, 0], 1, True, reports) is None
    assert reports == [earlier]  # the thread's own accesses never race
    assert h.check_and_update(4, 1, 0, True, [0, 1], 1, True, reports) is None
    assert reports == [earlier, (4, 0, READ_WRITE), (4, 0, WRITE_WRITE)]
    assert all(type(r) is tuple for r in reports)
    assert h.race_checks == 3


def test_only_extended_histories_write_watermarks():
    for marked, _rate in random_traces(seed=23, count=40):
        for token in ("djitp", "sampling", "uclock", "orderedlist"):
            for mode in (SAMPLED_ONLY, EXTENDED):
                e = create_engine(token, marked, mode=mode)
                e.run(marked)
                histories = e.histories.histories
                if e.histories.extended:
                    assert sum(h.gen_r + h.gen_w for h in histories) == e.metrics.accesses_sampled
                else:
                    assert all(h.gen_r == h.gen_w == 0 for h in histories), (token, mode)
                    assert all(h.seen_r is h.seen_w is None for h in histories)


def test_differential_both_modes_on_random_traces():
    for marked, _rate in random_traces(seed=21, count=120):
        for mode in (SAMPLED_ONLY, EXTENDED):
            e = create_engine("sampling", marked, mode=mode)
            e.run(marked)
            assert e.racy_set() == oracle.racy_events(marked, mode)


def test_extended_race_check_budget():
    for marked, _rate in random_traces(seed=22, count=60):
        e = create_engine("sampling", marked, mode=EXTENDED)
        e.run(marked)
        s, t = marked.sample_size, marked.num_threads
        assert e.histories.race_checks <= s + 2 * s * t


def test_report_rendering_sorted():
    # The engines emit reports sorted and distinct; rendering keeps them so.
    reports = [
        (2, 0, WRITE_READ),
        (9, 0, READ_WRITE),
        (9, 0, WRITE_WRITE),
        (9, 1, WRITE_READ),
    ]
    assert render_reports(reports, ("x", "y")) == (
        "RACE write-read at e2 on x\nRACE read-write at e9 on x\n"
        "RACE write-write at e9 on x\nRACE write-read at e9 on y\n"
    )
    assert render_reports([], ()) == ""


MULTI_RACE_TEXT = """\
T1|w(a)|*
T2|r(a)|*
T3|w(a)|*
T1|acq(m)
T1|w(b)|*
T1|rel(m)
T2|w(b)|*
T3|r(c)|*
T2|r(c)|*
T1|w(c)|*
T2|acq(m)
T2|w(b)|*
T2|rel(m)
"""


def test_rendered_race_list_is_pinned_on_a_multi_race_trace():
    tr = parse_trace(MULTI_RACE_TEXT)
    want = (
        "RACE write-read at e2 on a\n"
        "RACE read-write at e3 on a\n"
        "RACE write-write at e3 on a\n"
        "RACE write-write at e7 on b\n"
        "RACE read-write at e10 on c\n"
    )
    for token in ("djitp", "sampling", "uclock", "orderedlist"):
        e = create_engine(token, tr)
        reports = e.run(tr)
        assert render_reports(reports, tr.var_names) == want


def test_rendered_race_list_is_pinned_on_a_generated_trace():
    import hashlib

    from racelab.gen import GenConfig, generate_trace
    from racelab.trace import SamplingPolicy, apply_sampling

    cfg = GenConfig(threads=6, locks=3, vars=5, events=3000)
    tr = apply_sampling(generate_trace(cfg, 17), SamplingPolicy.bernoulli(1.0, 0))
    e = create_engine("djitp", tr)
    text = render_reports(e.run(tr), tr.var_names)
    assert text.count("\n") == 3004
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2d1bdfcd769f09e2801f1798eab0ec17556ed6704923bfa35382b7c0d6210f9e"
    )


def test_histories_allocate_one_list_per_variable_in_sampled_only_mode():
    # The write summary is an epoch, so a history holds the read epochs
    # alone, plus the two watermark lists in extended mode: 8 bytes a slot
    # each, plus per-variable overhead.
    num_vars, width = 1024, 256
    limits = {SAMPLED_ONLY: 10, EXTENDED: 28}  # bytes per variable and thread
    for mode, per_slot in limits.items():
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            histories = AccessHistories(num_vars, width, mode)
            used, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(histories.histories) == num_vars
        assert used - base <= per_slot * width * num_vars, (mode, used - base)


def test_race_report_is_a_plain_tuple():
    r = (7, 2, WRITE_READ)
    assert render_reports([r], ("x0", "x1", "x2")) == "RACE write-read at e7 on x2\n"
    assert render_reports([r], ("a", "b", "v")) == "RACE write-read at e7 on v\n"
    assert sorted([(3, 1, WRITE_WRITE), (3, 0, WRITE_WRITE), r]) == [
        (3, 0, WRITE_WRITE), (3, 1, WRITE_WRITE), r
    ]
