"""The columnar trace core: columns, mark vectors, Event views, retained size."""

import tracemalloc
from array import array
from fractions import Fraction
from itertools import product

import pytest

from conftest import LADDER_TEXT, bernoulli_hit, mix64, trace_text
from racelab.engines import ENGINE_TOKENS, create_engine
from racelab.gen import GenConfig, generate_trace
from racelab.history import EXTENDED, SAMPLED_ONLY
from racelab.olist import OrderedList
from racelab.trace import (
    ACQ,
    READ,
    REL,
    WRITE,
    LockDisciplineError,
    OpKind,
    SamplingPolicy,
    Trace,
    TraceSyntaxError,
    _validate_columns,
    apply_sampling,
    dump_trace,
    load_trace,
    parse_trace,
)


def test_columns_hold_ids_kinds_and_marks():
    tr = parse_trace("T1|acq(l)\nT1|w(x)|*\nT2|r(y)\nT1|rel(l)\n")
    assert list(tr.threads) == [0, 0, 1, 0]
    assert list(tr.kinds) == [ACQ, WRITE, READ, REL]
    assert list(tr.targets) == [0, 0, 1, 0]
    assert tr.marks == b"\x00\x01\x00\x00"
    assert (OpKind.ACQUIRE, OpKind.RELEASE, OpKind.READ, OpKind.WRITE) == (ACQ, REL, READ, WRITE)


def test_events_are_views_of_the_columns(ladder_trace):
    evs = ladder_trace.events
    assert evs is ladder_trace.events  # built once, then cached
    assert [e.index for e in evs] == list(range(1, 19))
    assert [e.kind for e in evs] == list(ladder_trace.kinds)
    assert [e.is_access for e in evs] == [k >= READ for k in ladder_trace.kinds]
    assert [e.thread for e in evs] == list(ladder_trace.threads)
    assert [e.target for e in evs] == list(ladder_trace.targets)
    assert [int(e.marked) for e in evs] == list(ladder_trace.marks)


def test_trace_from_columns_round_trips_and_shares_them(ladder_trace):
    again = Trace(
        ladder_trace.threads,
        ladder_trace.kinds,
        ladder_trace.targets,
        ladder_trace.marks,
        ladder_trace.num_threads,
        ladder_trace.num_locks,
        ladder_trace.num_vars,
        ladder_trace.thread_names,
        ladder_trace.lock_names,
        ladder_trace.var_names,
    )
    assert again == ladder_trace
    assert trace_text(again) == LADDER_TEXT
    assert again.threads is ladder_trace.threads
    assert again.kinds is ladder_trace.kinds
    assert again.targets is ladder_trace.targets
    assert again.marks is ladder_trace.marks


# (thread, kind, target) events over one lock, the offending event's 1-based
# index and the reason.  Accesses come before the offender, so its index
# counts every event, not only the acquires and releases.
@pytest.mark.parametrize(
    "events, index, reason",
    [
        pytest.param([(0, REL, 0)], 1, "release-of-free-lock", id="release-of-free-lock"),
        pytest.param(
            [(0, READ, 0), (0, ACQ, 0), (1, WRITE, 1), (1, ACQ, 0)], 4, "acquire-of-held-lock",
            id="acquire-of-held-lock",
        ),
        pytest.param(
            [(0, ACQ, 0), (1, READ, 0), (1, WRITE, 2), (1, REL, 0)], 4, "release-by-non-holder",
            id="release-by-non-holder",
        ),
    ],
)
def test_columns_are_validated(events, index, reason):
    threads, kinds, targets = zip(*events)
    with pytest.raises(LockDisciplineError, match=f"^event {index}: {reason}$") as err:
        _validate_columns(array("i", threads), array("b", kinds), array("i", targets), 1)
    assert (err.value.event_index, err.value.reason) == (index, reason)


def test_sampling_shares_all_columns_but_the_marks(ladder_trace):
    marked = apply_sampling(ladder_trace, SamplingPolicy.bernoulli(0.5, 3))
    assert marked.threads is ladder_trace.threads
    assert marked.kinds is ladder_trace.kinds
    assert marked.targets is ladder_trace.targets
    assert isinstance(marked.marks, bytes)
    assert marked.marks != ladder_trace.marks


# The mark kernel decides 4096 events per chunk: lengths on both sides of one
# and two chunk boundaries, seeds that wrap, the largest threshold below 2**64
# (no float rate reaches it), and thresholds at and just above the mix of
# event 5001, a write of the 10001-event trace: unmarked, then marked.
_MAX_THRESHOLD_RATE = Fraction(2**64 - 1, 2**64)
_MIX_5001 = mix64(31 + 5001 * 0x9E3779B97F4A7C15)
_MARK_CASES = [
    pytest.param(rate, seed, 4000, id=f"{rate}-{seed}")
    for rate in (0.0, 0.003, 0.03, 1.0)
    for seed in (0, 31, 2**64 - 1, -1)
] + [
    pytest.param(rate, seed, events, id=f"{rate_id}-{seed}-{events}ev")
    for rate, rate_id in ((0.03, "0.03"), (0.5, "0.5"), (_MAX_THRESHOLD_RATE, "max"))
    for seed in (31, -1, 2**64 - 1)
    for events in (4095, 4096, 4097, 10_001)
] + [
    pytest.param(Fraction(_MIX_5001 + above, 2**64), 31, 10_001, id=f"mix5001+{above}-31-10001ev")
    for above in (0, 1)
]


@pytest.mark.parametrize("rate, seed, events", _MARK_CASES)
def test_mark_vector_equals_bernoulli_hit_at_every_index(rate, seed, events):
    tr = generate_trace(GenConfig(threads=4, locks=3, vars=6, events=events), 8)
    marks = apply_sampling(tr, SamplingPolicy.bernoulli(rate, seed)).marks
    for i, kind in enumerate(tr.kinds, start=1):
        want = kind >= READ and bernoulli_hit(seed, i, rate)
        assert marks[i - 1] == want, f"event {i}"


def test_invalid_utf8_is_a_syntax_error_with_its_line():
    with pytest.raises(TraceSyntaxError) as err:
        parse_trace(b"\xff\xfe")
    assert err.value.line_no == 1
    with pytest.raises(TraceSyntaxError) as err:
        parse_trace(b"T1|w(x)\n# note\nT1|r(\xc3x)\n")
    assert err.value.line_no == 3


def test_syntax_errors_take_precedence_over_later_discipline_checks():
    # Parsing and discipline checks share one pass; a violation on an
    # earlier line must still lose to a syntax error on a later one.
    with pytest.raises(TraceSyntaxError) as err:
        parse_trace("T1|rel(l)\nT1|acq(m)|*")
    assert err.value.line_no == 2


def test_parsed_trace_retains_at_most_16_bytes_per_event():
    text = trace_text(generate_trace(GenConfig(threads=8, locks=8, vars=64, events=20_000), 4))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tr = parse_trace(text)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tr) == 20_000
    assert (retained - base) / len(tr) <= 16


def test_load_trace_peaks_at_most_twice_the_retained_bytes(tmp_path):
    # The file is parsed a line at a time: no copy of the whole file, its
    # text or its line list is ever alive next to the columns.
    path = tmp_path / "t.trace"
    dump_trace(generate_trace(GenConfig(threads=8, locks=8, vars=64, events=20_000), 4), path)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        tr = load_trace(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tr) == 20_000
    assert peak - base <= 2 * (retained - base)


@pytest.mark.parametrize("source", ["bytes", "file"])
def test_the_first_malformed_line_wins(tmp_path, source):
    def parse(data):
        if source == "bytes":
            return parse_trace(data)
        path = tmp_path / "t.trace"
        path.write_bytes(data)
        return load_trace(path)

    # Lines are decoded one at a time, so a syntax error on line 1 beats
    # undecodable bytes on line 2.
    with pytest.raises(TraceSyntaxError) as err:
        parse(b"garbage\nT1|r(\xff)\n")
    assert err.value.line_no == 1
    # A line is decoded with its newline, so the UTF-8 reason is the one a
    # decode of the whole text gives.
    with pytest.raises(TraceSyntaxError) as err:
        parse(b"T1|w(x)\nT1|r(\xc3\n")
    assert str(err.value) == "line 2: invalid UTF-8: invalid continuation byte"


def _snapshot_calls(monkeypatch):
    calls = []
    original = OrderedList.snapshot

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(OrderedList, "snapshot", counting)
    return calls


@pytest.mark.parametrize("mode", [SAMPLED_ONLY, EXTENDED])
def test_only_checked_accesses_build_a_timestamp(monkeypatch, mode):
    # Not even checked ones: a check reads the thread's live clock row, so a
    # run without a snapshot hook copies no clock at all.
    tr = generate_trace(GenConfig(threads=6, locks=3, vars=8, events=3000), 2)
    marked = apply_sampling(tr, SamplingPolicy.bernoulli(0.01, 5))
    calls = _snapshot_calls(monkeypatch)
    engine = create_engine("orderedlist", marked, mode=mode)
    engine.run(marked)
    checks = engine.histories.race_checks
    assert 0 < checks < marked.sample_size + 2 * marked.sample_size * marked.num_threads
    assert len(calls) == 0
    if mode == SAMPLED_ONLY:
        assert checks == marked.sample_size


@pytest.mark.parametrize("token", ENGINE_TOKENS)
def test_run_and_process_agree(token):
    tr = generate_trace(GenConfig(threads=5, locks=3, vars=4, events=1500, p_sync=0.4), 6)
    marked = apply_sampling(tr, SamplingPolicy.bernoulli(0.1, 1))
    for mode, hooked in product((SAMPLED_ONLY, EXTENDED), (False, True)):
        snaps = {"fast": [], "slow": []}

        def hook(key):
            return (lambda index, eff: snaps[key].append((index, eff))) if hooked else None

        fast = create_engine(token, marked, mode=mode, on_event=hook("fast"))
        fast.run(marked)
        slow = create_engine(token, marked, mode=mode, on_event=hook("slow"))
        for ev in marked.events:
            slow.process(ev)
        assert fast.reports == slow.reports
        assert fast.metrics.as_dict() == slow.metrics.as_dict()
        assert fast.metrics.race_checks == fast.histories.race_checks
        assert snaps["fast"] == snaps["slow"]
        if hooked:  # one timestamp per event, in trace order
            assert [index for index, _ in snaps["fast"]] == list(range(1, len(marked) + 1))
