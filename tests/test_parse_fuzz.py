"""Property tests for the parser: any input ends in a Trace or a TraceError."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import valid_traces
from racelab.trace import OpKind, TraceError, parse_trace, serialize_trace

FUZZ = settings(max_examples=100, deadline=None)

# Characters the grammar gives meaning to, plus a few it rejects.
_ALPHABET = "|*()#Ttlxvw0123 \t\r\n\xa0" + "".join(k.value for k in OpKind)


def _parses_or_trace_error(data) -> None:
    try:
        parse_trace(data)
    except TraceError:
        pass


@FUZZ
@given(st.binary(max_size=200))
def test_arbitrary_bytes_raise_only_trace_errors(data):
    _parses_or_trace_error(data)


_token = st.text("Ttlxv0123", min_size=1, max_size=3)
_near_miss_line = st.one_of(
    st.text(_ALPHABET, max_size=24),
    st.builds(
        lambda t, op, obj, mark, pad: f"{pad}{t}|{op}({obj}){mark}{pad}",
        st.one_of(_token, st.text(_ALPHABET, max_size=3)),
        st.sampled_from(["acq", "rel", "r", "w", "x", "", "acq(", "W"]),
        st.one_of(_token, st.text(_ALPHABET, max_size=3)),
        st.sampled_from(["", "|*", "|", "*", "|**", "|* "]),
        st.sampled_from(["", " ", "\t", "\r", "\xa0"]),
    ),
)


@FUZZ
@given(st.lists(_near_miss_line, max_size=12))
def test_near_miss_lines_raise_only_trace_errors(lines):
    text = "\n".join(lines)
    _parses_or_trace_error(text)
    _parses_or_trace_error(text.encode("utf-8"))


@FUZZ
@given(valid_traces())
def test_valid_traces_round_trip_and_view_as_generated(case):
    text, events = case
    tr = parse_trace(text)
    assert serialize_trace(tr) == text
    assert tr.events == events
    assert parse_trace(text.encode("utf-8")) == tr
