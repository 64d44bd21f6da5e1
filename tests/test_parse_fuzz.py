"""Property tests for the parser: any input ends in a Trace or a TraceError,
the parse agrees with an independent line-by-line recognizer, and edits at
chunk boundaries give what the format says they give."""

import io
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rows, valid_traces
from racelab import trace as trace_mod
from racelab.trace import (
    _TOKENS,
    LockDisciplineError,
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
        st.sampled_from(["", "|*", "|", "*", "|**", "|* ", "|*|*"]),
        st.sampled_from(["", " ", "\t", "\r", "\xa0"]),
    ),
)


# --- a reference recognizer ------------------------------------------------
# The text format read one line at a time, with its own regex: the parser
# must agree with it on every input.

_REFERENCE_LINE = re.compile(
    r"^(?P<thread>[^|\s]+)\|(?P<op>acq|rel|r|w)\((?P<obj>[^()|\s]+)\)(?P<mark>\|\*)?$"
)


def _reference(data: bytes):
    """The ``(thread, op, obj, marked)`` rows of ``data``, or the line
    number and message of its first malformed line."""
    rows = []
    for line_no, line in enumerate(io.BytesIO(data), start=1):
        try:
            line = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            return line_no, f"invalid UTF-8: {exc.reason}"
        if not line or line[0] == "#":
            continue
        m = _REFERENCE_LINE.match(line)
        if m is None:
            return line_no, f"cannot parse {line!r}"
        if m["op"] in ("acq", "rel") and m["mark"]:
            return line_no, "mark on non-access event"
        rows.append((m["thread"], m["op"], m["obj"], bool(m["mark"])))
    return rows


def _first_discipline_error(rows):
    """The 1-based index of the first row that breaks the lock discipline."""
    holder = {}
    for index, (thread, op, obj, _) in enumerate(rows, start=1):
        if op == "acq":
            if obj in holder:
                return index
            holder[obj] = thread
        elif op == "rel":
            if holder.pop(obj, None) != thread:
                return index
    return None


def _named_rows(tr: Trace):
    tables = (tr.lock_names, tr.lock_names, tr.var_names, tr.var_names)
    return [
        (tr.thread_names[t], _TOKENS[k], tables[k][x], bool(m))
        for t, k, x, m in zip(tr.threads, tr.kinds, tr.targets, tr.marks)
    ]


def _assert_parses_like_the_reference(data) -> None:
    """``parse_trace(data)`` gives the reference's rows, or raises at its bad
    line with its message, or at the first event that breaks the discipline."""
    want = _reference(data if isinstance(data, bytes) else data.encode("utf-8"))
    if isinstance(want, list) and (index := _first_discipline_error(want)):
        want = index
    try:
        got = _named_rows(parse_trace(data))
    except TraceSyntaxError as exc:
        got = exc.line_no, str(exc).split(": ", 1)[1]
    except LockDisciplineError as exc:
        got = exc.event_index
    assert got == want


@FUZZ
@given(st.lists(_near_miss_line, max_size=12))
def test_near_miss_lines_raise_only_trace_errors(lines):
    text = "\n".join(lines)
    for data in (text, text.encode("utf-8"), *lines):  # each line alone, too
        _assert_parses_like_the_reference(data)


@FUZZ
@given(valid_traces())
def test_valid_traces_round_trip_and_view_as_generated(case):
    text, expected = case
    tr = parse_trace(text)
    assert serialize_trace(tr) == text
    assert rows(tr) == expected
    assert parse_trace(text.encode("utf-8")) == tr


# --- edits at chunk boundaries --------------------------------------------

_CHUNK = 3  # small, so that chunk boundaries fall inside short traces

# Line edits that keep a chunk from splitting whole.  Each takes the line at
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
# The syntax error each bad edit makes at its line; the other edits change
# no event.
_ERRORS = {
    "marked-sync": "mark on non-access event",
    "bad-utf8": "invalid UTF-8: invalid start byte",
    "syntax-error": "cannot parse 'T1|x(y)'",
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
    # Chunks of 1 line send each edited line through the line-by-line split
    # alone; chunks of 3 mix it with valid lines on either side.
    lines = case[0].encode("utf-8").splitlines() + [b"T3|w(v)"] * filler or [b"T1|r(x)"]
    end = b"\n" if final_newline else b""
    unedited = b"\n".join(lines) + end
    pos = position % len(lines)
    lines[pos:pos + 1] = _SPECIALS[special](lines[pos])
    data = b"\n".join(lines) + end
    path = tmp_path_factory.getbasetemp() / "chunked.trace"
    path.write_bytes(data)

    if special in _ERRORS:
        want = TraceSyntaxError, pos + 1, f"line {pos + 1}: {_ERRORS[special]}"
    else:
        want = parse_trace(unedited)
    for chunk_lines in (1, _CHUNK):
        with mock.patch.object(trace_mod, "_CHUNK_LINES", chunk_lines):
            assert _outcome(load_trace, path) == want
            assert _outcome(parse_trace, data) == want
            if special != "bad-utf8":  # no str holds the undecodable byte
                assert _outcome(parse_trace, data.decode("utf-8")) == want
