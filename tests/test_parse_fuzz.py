"""Property tests for the parser: any input ends in a Trace or a TraceError,
and the chunked scan gives what the line loop gives."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rows, valid_traces
from racelab import trace as trace_mod
from racelab.trace import (
    _TOKENS,
    Trace,
    TraceError,
    TraceSyntaxError,
    load_trace,
    parse_trace,
    serialize_trace,
)

FUZZ = settings(max_examples=100, deadline=None)

# Characters the grammar gives meaning to, plus a few it rejects.
_ALPHABET = "|*()#Ttlxvw0123 \t\r\n\xa0" + "".join(_TOKENS)


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
    text, expected = case
    tr = parse_trace(text)
    assert serialize_trace(tr) == text
    assert rows(tr) == expected
    assert parse_trace(text.encode("utf-8")) == tr


# --- the chunked scan against the line loop ---------------------------------

_CHUNK = 3  # small, so that chunk boundaries fall inside short traces

# Line edits that send a chunk through the line loop.  Each takes the line at
# the chosen position and returns the lines that replace it.
_SPECIALS = {
    "none": lambda line: [line],
    "comment": lambda line: [b"#T1|r(x)", line],  # an event line but for the "#"
    "blank": lambda line: [b"", line],
    "crlf": lambda line: [line + b"\r"],
    "whitespace": lambda line: [b" " + line + b"\t"],
    "marked-sync": lambda line: [b"T1|acq(l1)|*", line],
    "bad-utf8": lambda line: [line[:2] + b"\xff" + line[2:]],
    "syntax-error": lambda line: [b"T1|x(y)", line],
}
# The first line, the first line of the second chunk, a line after a valid
# line of the same chunk, and the last line.
_POSITIONS = (0, _CHUNK, _CHUNK + 1, -1)


def _outcome(parse, data):
    try:
        return parse(data)
    except TraceError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)


@settings(max_examples=12, deadline=None)
@pytest.mark.parametrize("position", _POSITIONS)
@pytest.mark.parametrize("special", sorted(_SPECIALS))
@given(case=valid_traces(), final_newline=st.booleans(), filler=st.integers(0, 2 * _CHUNK))
def test_chunked_scan_matches_the_line_loop(tmp_path_factory, special, position, case,
                                            final_newline, filler):
    lines = case[0].encode("utf-8").splitlines() + [b"T3|w(v)"] * filler or [b"T1|r(x)"]
    pos = position % len(lines)
    lines[pos:pos + 1] = _SPECIALS[special](lines[pos])
    data = b"\n".join(lines) + (b"\n" if final_newline else b"")
    path = tmp_path_factory.getbasetemp() / "chunked.trace"
    path.write_bytes(data)

    with mock.patch.object(trace_mod, "_SPLIT_ROWS", lambda text: ()):
        want = _outcome(parse_trace, data)  # every chunk takes the line loop
    with mock.patch.object(trace_mod, "_CHUNK_LINES", _CHUNK):
        assert _outcome(load_trace, path) == want
        assert _outcome(parse_trace, data) == want
        if special != "bad-utf8":
            assert _outcome(parse_trace, data.decode("utf-8")) == want
    if special in ("none", "comment", "blank", "crlf", "whitespace"):
        assert isinstance(want, Trace)
    else:
        assert want[0] is TraceSyntaxError and want[1] == pos + 1
