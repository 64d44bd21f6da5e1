import math
import random

import pytest

from conftest import LADDER_TEXT, bernoulli_hit, random_config, rows, trace_text
from racelab.gen import GenConfig, generate_trace
from racelab.trace import (
    READ,
    WRITE,
    LockDisciplineError,
    SamplingPolicy,
    TraceSyntaxError,
    apply_sampling,
    parse_trace,
)


def test_parse_minimal_conflicting_pair():
    tr = parse_trace("T1|w(x)|*\nT2|w(x)")
    assert len(tr) == 2
    assert tr.num_threads == 2 and tr.num_vars == 1 and tr.num_locks == 0
    assert rows(tr) == [(1, 0, WRITE, 0, True), (2, 1, WRITE, 0, False)]


def test_parse_ladder_example(ladder_trace):
    tr = ladder_trace
    assert len(tr) == 18
    assert (tr.num_threads, tr.num_locks, tr.num_vars) == (2, 4, 1)
    assert [index for index, *_, marked in rows(tr) if marked] == [5, 15, 16]
    # dense ids by first appearance
    assert tr.thread_names == ("T1", "T2")
    assert tr.lock_names == ("l4", "l3", "l2", "l1")


def test_parse_ignores_comments_and_blank_lines():
    tr = parse_trace("# header\n\nT1|r(a)\n  \n# tail\nT1|w(a)|*\n")
    assert len(tr) == 2
    assert tr.marks == b"\x00\x01"


@pytest.mark.parametrize(
    "text,index,reason",
    [
        ("T1|rel(l1)", 1, "release-of-free-lock"),
        ("T1|acq(l)\nT1|acq(l)", 2, "acquire-of-held-lock"),
        ("T1|acq(l)\nT2|acq(l)", 2, "acquire-of-held-lock"),
        ("T1|acq(l)\nT2|rel(l)", 2, "release-by-non-holder"),
        ("T1|acq(l)\nT1|rel(l)\nT1|rel(l)", 3, "release-of-free-lock"),
    ],
)
def test_lock_discipline_violations(text, index, reason):
    with pytest.raises(LockDisciplineError) as err:
        parse_trace(text)
    assert err.value.event_index == index
    assert err.value.reason == reason


@pytest.mark.parametrize("text", ["T1|acq(l)|*", "garbage", "T1|x(a)", "T1|w()", "|w(x)"])
def test_syntax_errors_carry_line_numbers(text):
    with pytest.raises(TraceSyntaxError) as err:
        parse_trace("# comment\n" + text)
    assert err.value.line_no == 2


def test_str_with_a_lone_surrogate_is_a_syntax_error_at_its_line():
    # A str is parsed as its UTF-8 encoding; a lone surrogate has none.
    with pytest.raises(TraceSyntaxError) as err:
        parse_trace("T1|r(x)\nT\ud800|w(x)\n")
    assert err.value.line_no == 2


def test_serialize_empty():
    tr = parse_trace("")
    assert trace_text(tr) == ""


def test_serialize_ladder_example(ladder_trace):
    text = trace_text(ladder_trace)
    lines = text.strip().split("\n")
    assert len(lines) == 18
    assert [i + 1 for i, l in enumerate(lines) if l.endswith("|*")] == [5, 15, 16]
    assert text == LADDER_TEXT


def test_round_trip_on_random_traces():
    rng = random.Random(12)
    for i in range(100):
        tr = generate_trace(random_config(rng), i)
        marked = apply_sampling(tr, SamplingPolicy.bernoulli(0.2, i))
        assert parse_trace(trace_text(marked)) == marked


def test_parse_accepts_bytes():
    assert rows(parse_trace(b"T1|r(v)\n")) == [(1, 0, READ, 0, False)]


def test_apply_sampling_rate_edges(ladder_trace):
    none = apply_sampling(ladder_trace, SamplingPolicy.bernoulli(0.0, 1))
    assert none.sample_size == 0
    allm = apply_sampling(ladder_trace, SamplingPolicy.bernoulli(1.0, 1))
    assert allm.sample_size == sum(k >= READ for k in ladder_trace.kinds)
    assert all(not marked for _, _, kind, _, marked in rows(allm) if kind < READ)


def test_apply_sampling_modes(ladder_trace):
    assert apply_sampling(ladder_trace, SamplingPolicy.premarked()) == ladder_trace
    cleared = apply_sampling(ladder_trace, SamplingPolicy.bernoulli(0.0, 0))
    assert cleared.marks == bytes(len(ladder_trace))


def test_apply_sampling_deterministic_and_index_local(ladder_trace):
    pol = SamplingPolicy.bernoulli(0.5, 42)
    a = apply_sampling(ladder_trace, pol)
    b = apply_sampling(ladder_trace, pol)
    assert a == b
    # decisions depend only on (seed, index), not on surrounding event content
    for index, _, kind, _, marked in rows(a):
        if kind >= READ:
            assert marked == bernoulli_hit(42, index, 0.5)


def test_bernoulli_mark_count_within_three_sigma():
    # 10000 accesses at rate 0.03: binomial mean 300, sigma = sqrt(300*0.97)
    n, rate = 10_000, 0.03
    tr = parse_trace("\n".join("T1|w(x)" for _ in range(n)))
    marked = apply_sampling(tr, SamplingPolicy.bernoulli(rate, 2024))
    mean = n * rate
    sigma = math.sqrt(n * rate * (1 - rate))
    assert abs(marked.sample_size - mean) <= 3 * sigma


def test_policy_validation():
    with pytest.raises(ValueError):
        SamplingPolicy.bernoulli(1.5, 0)
    with pytest.raises(ValueError):
        SamplingPolicy("weird")


def test_there_is_no_none_sampling_mode():
    # bernoulli at rate 0 clears every mark (test_apply_sampling_modes).
    with pytest.raises(ValueError, match="unknown sampling mode 'none'"):
        SamplingPolicy("none")


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(threads=0, locks=1, vars=1, events=1)
    with pytest.raises(ValueError):
        GenConfig(threads=1, locks=1, vars=1, events=1, p_sync=1.5)
    with pytest.raises(ValueError):
        GenConfig(threads=1, locks=1, vars=1, events=1, accesses_per_cs=-1)
