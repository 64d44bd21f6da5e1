"""Property tests for the parser: any input ends in a Trace or a TraceError."""

from hypothesis import given, settings
from hypothesis import strategies as st

from racelab.trace import Event, OpKind, TraceError, parse_trace, serialize_trace

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


@st.composite
def valid_traces(draw):
    """Lock-discipline-respecting event lists in file tokens, with the Events
    a parse must produce (dense ids by first appearance)."""
    names = ["T1", "T2", "T3"]
    locks = ["l1", "l2"]
    variables = ["x", "y", "z"]
    holder = {}
    tokens, ids = [], ({}, {}, {})
    events = []
    for index in range(1, draw(st.integers(0, 30)) + 1):
        thread = draw(st.sampled_from(names))
        held = [l for l, h in holder.items() if h == thread]
        free = [l for l in locks if l not in holder]
        choices = ["r", "w"] + (["acq"] if free else []) + (["rel"] if held else [])
        op = draw(st.sampled_from(choices))
        if op == "acq":
            obj = draw(st.sampled_from(free))
            holder[obj] = thread
        elif op == "rel":
            obj = draw(st.sampled_from(held))
            del holder[obj]
        else:
            obj = draw(st.sampled_from(variables))
        marked = op in ("r", "w") and draw(st.booleans())
        tokens.append(f"{thread}|{op}({obj})" + ("|*" if marked else ""))
        tid = ids[0].setdefault(thread, len(ids[0]))
        table = ids[2] if op in ("r", "w") else ids[1]
        target = table.setdefault(obj, len(table))
        events.append(Event(index, tid, OpKind(op), target, marked))
    text = "\n".join(tokens) + ("\n" if tokens else "")
    return text, tuple(events)


@FUZZ
@given(valid_traces())
def test_valid_traces_round_trip_and_view_as_generated(case):
    text, events = case
    tr = parse_trace(text)
    assert serialize_trace(tr) == text
    assert tr.events == events
    assert parse_trace(text.encode("utf-8")) == tr
