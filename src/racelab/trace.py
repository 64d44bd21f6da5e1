"""Trace data model, text format, validation and sampling.

The synthetic generator lives in ``racelab.gen``.

Trace file format (UTF-8 text, LF line endings)::

    line   := thread "|" op [ "|*" ]
    thread := non-empty token without "|" or whitespace
    op     := ("acq" | "rel" | "r" | "w") "(" token ")"

``|*`` marks the event as a member of the sample set.  Lines starting with
``#`` and blank lines are ignored.  Example line: ``T1|w(x)|*``.

Thread/lock/variable names in files are free-form tokens; dense integer ids
are assigned by order of first appearance.  Every trace is validated against
the locking discipline: a lock is held by at most one thread, is released only
by its holder, and re-entrant acquires are rejected.

There is one way into a trace, and one grammar: the ``_SPLIT_ROWS`` regex.
The parser reads UTF-8 bytes (a ``str`` is encoded first) in chunks of
``_CHUNK_LINES`` lines; each chunk is decoded once and split by one
``_SPLIT_ROWS`` call.  A chunk holding a comment, a blank line, surrounding
whitespace (a CR too) or a bad line is split again one stripped line at a
time, which skips comments and blanks and is the only source of syntax
errors.  Either split fills the columns by the same C-level passes, with
dense ids and no mark on acq/rel by construction.  The filled columns go to
``_validate_columns``, the one lock discipline check, which also guards
``racelab.gen``; the ``Trace`` constructor itself only wraps columns.  A
syntax error on any line therefore beats a discipline error, and
``load_trace`` never holds the whole file, its text or a list of its lines.

In memory a trace is a set of columns, one entry per event: ``threads`` and
``targets`` are ``array('i')`` of dense ids, ``kinds`` is an ``array('b')``
of the small-int kind codes ``ACQ``/``REL``/``READ``/``WRITE``, and
``marks`` is an immutable ``bytes`` mark vector (1 = in the sample set).
That is about 10 bytes per event.  A sampling policy yields a new mark
vector only; the trace it returns shares the other three columns.
``Trace.events`` is a lazily built, cached tuple of ``Event`` views over
the same data, whose ``kind`` is the kind code (``OpKind`` only names the
codes).  Only ``perfbench/layers.py``, which feeds them to
``Engine.process``, and its guard tests read them; the package and the
other tests read the columns.
"""

from __future__ import annotations

import io
import re
from array import array
from functools import cache
from itertools import compress, count, islice
from typing import Iterator, NamedTuple, Sequence, Tuple


class TraceError(ValueError):
    """Base class for trace parsing/validation/generation errors."""


class TraceSyntaxError(TraceError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LockDisciplineError(TraceError):
    """Reasons: acquire-of-held-lock | release-by-non-holder | release-of-free-lock."""

    def __init__(self, event_index: int, reason: str):
        super().__init__(f"event {event_index}: {reason}")
        self.event_index = event_index
        self.reason = reason


class InfeasibleConfigError(TraceError):
    """The generator cannot satisfy the requested configuration."""


# Kind codes stored in ``Trace.kinds``; codes >= READ are accesses.
ACQ, REL, READ, WRITE = 0, 1, 2, 3
# The text format's token of each kind, indexed by kind code.
_TOKENS = ("acq", "rel", "r", "w")


class OpKind:
    """The kind codes under long names, for ``perfbench/layers.py``."""

    ACQUIRE, RELEASE, READ, WRITE = ACQ, REL, READ, WRITE


_CODE_OF_TOKEN = {token: code for code, token in enumerate(_TOKENS)}


class Event(NamedTuple):
    """One trace event.  ``target`` is a dense lock id (acq/rel) or var id (r/w)."""

    index: int  # 1-based position in the trace
    thread: int
    kind: int  # kind code
    target: int
    marked: bool = False

    @property
    def is_access(self) -> bool:
        return self.kind >= READ


class Trace:
    """An immutable trace held as columns (see the module docstring).

    ``Trace(threads, kinds, targets, marks, num_threads, num_locks,
    num_vars)`` keeps the four columns as given, without copying or
    validating them.  The validated ways in are ``parse_trace``,
    ``load_trace`` and ``racelab.gen.generate_trace``; ``apply_sampling``
    wraps a valid trace's columns with a new mark vector.  Safe to share
    read-only across concurrent analyses.  Name tables keep the original
    tokens per dense id so serialization round-trips byte-for-byte.
    """

    __slots__ = (
        "threads", "kinds", "targets", "marks",
        "num_threads", "num_locks", "num_vars",
        "thread_names", "lock_names", "var_names", "_events",
    )

    def __init__(self, threads, kinds, targets, marks, num_threads: int, num_locks: int,
                 num_vars: int, thread_names: Tuple[str, ...] = (),
                 lock_names: Tuple[str, ...] = (), var_names: Tuple[str, ...] = ()):
        self.threads = threads
        self.kinds = kinds
        self.targets = targets
        self.marks = marks
        self.num_threads = num_threads
        self.num_locks = num_locks
        self.num_vars = num_vars
        self.thread_names = tuple(thread_names) or tuple(f"T{i}" for i in range(num_threads))
        self.lock_names = tuple(lock_names) or tuple(f"l{i}" for i in range(num_locks))
        self.var_names = tuple(var_names) or tuple(f"x{i}" for i in range(num_vars))
        self._events = None

    @property
    def events(self) -> Tuple[Event, ...]:
        """``Event`` views of the columns, built on first use and cached.
        Only ``perfbench/layers.py`` and its guard tests read them."""
        if self._events is None:
            self._events = tuple(map(
                Event, count(1), self.threads, self.kinds, self.targets, map(bool, self.marks)
            ))
        return self._events

    def __len__(self) -> int:
        return len(self.kinds)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.num_threads == other.num_threads
            and self.num_locks == other.num_locks
            and self.num_vars == other.num_vars
            and self.thread_names == other.thread_names
            and self.lock_names == other.lock_names
            and self.var_names == other.var_names
            and self.marks == other.marks
            and self.kinds == other.kinds
            and self.threads == other.threads
            and self.targets == other.targets
        )

    def __repr__(self) -> str:
        return (
            f"Trace({len(self)} events, {self.num_threads} threads, {self.num_locks} locks, "
            f"{self.num_vars} vars, {self.sample_size} marked)"
        )

    @property
    def sample_size(self) -> int:
        return self.marks.count(1)


# ``bytes(kinds).translate(_SYNC_MASK)``: 1 for each acquire or release, 0 otherwise.
_SYNC_MASK = bytes(k in (ACQ, REL) for k in range(256))


def _validate_columns(threads, kinds, targets, num_locks: int) -> None:
    """Check the locking discipline on the acquires and releases alone, in
    event order; the first offender is named by its index among all events.
    Ids and marks are right by construction: the parser and ``racelab.gen``
    number ids densely, and neither marks an acq/rel.  The parser calls it
    once the whole text has parsed."""
    holder = [-1] * num_locks  # lock id -> holding thread id, -1 if free
    sync = bytes(kinds).translate(_SYNC_MASK)
    for pos, t, k, x in compress(zip(count(1), threads, kinds, targets), sync):
        h = holder[x]
        if k == ACQ:
            if h >= 0:
                raise LockDisciplineError(pos, "acquire-of-held-lock")
            holder[x] = t
        elif h == t:
            holder[x] = -1
        else:
            raise LockDisciplineError(
                pos, "release-of-free-lock" if h < 0 else "release-by-non-holder"
            )


# The format's one grammar: an event line (``line`` in the module docstring,
# with no "#" first and no mark on acq/rel), anchored at each line of a text.
# Splitting a text by it gives the text between matches followed by each
# match's thread, "op(obj" and mark ("|*" or None), a flat list of 4 entries
# per match plus one.  No token holds a newline and a match spans its whole
# line, so a chunk of n lines has n matches only if every line is an event
# line, and one stripped line splits into 5 parts only if it is one.
_SPLIT_ROWS = re.compile(
    r"^([^|\s#][^|\s]*)\|((?:acq|rel)\([^()|\s]+(?=\)$)|[rw]\([^()|\s]+)\)(\|\*)?$",
    re.MULTILINE,
).split

# Enough lines to amortise the per-chunk calls; few enough that a chunk's
# temporaries stay small next to the columns (``load_trace`` peaks within 2x).
_CHUNK_LINES = 192


class _Ids(dict):
    """Dense ids by first appearance: a missing name gets the next id."""

    def __missing__(self, name):
        self[name] = n = len(self)
        return n


class _Targets(dict):
    """``"op(obj"`` -> the lock or var id of ``obj``; ``kinds`` maps the same
    keys to their kind code.  Ids come from the parser's lock and var tables."""

    def __init__(self, lock_ids: _Ids, var_ids: _Ids):
        super().__init__()
        self.kinds = {}
        self.tables = (lock_ids, var_ids)

    def __missing__(self, key):
        op, obj = key.split("(")
        kind = self.kinds[key] = _CODE_OF_TOKEN[op]
        self[key] = target = self.tables[kind >= READ][obj]
        return target


def _parse_lines(lines) -> Trace:
    """Parse the ``bytes`` ``lines`` into columns, ``_CHUNK_LINES`` at a
    time, then validate them.

    Each chunk is decoded and split by ``_SPLIT_ROWS`` whole; a chunk that
    does not split into one row per line goes to ``_split_lines``, the only
    code that raises a syntax error.  Either way the columns grow by C-level
    passes over the split.  Dense ids are the insertion order of the name
    dicts.  The discipline check runs only after the last line has parsed,
    so a syntax error on any line takes precedence over it; by then the
    loop holds no chunk and no split.
    """
    tcol, kcol, xcol, marks = array("i"), array("b"), array("i"), bytearray()
    thread_ids, lock_ids, var_ids = _Ids(), _Ids(), _Ids()
    targets = _Targets(lock_ids, var_ids)
    lines = iter(lines)
    line_no = 0
    while chunk := list(islice(lines, _CHUNK_LINES)):
        try:
            parts = _SPLIT_ROWS(b"".join(chunk).decode("utf-8"))
        except UnicodeDecodeError:
            parts = ()
        if len(parts) != 4 * len(chunk) + 1:
            parts = _split_lines(chunk, line_no)
        tcol.extend(map(thread_ids.__getitem__, islice(parts, 1, None, 4)))
        xcol.extend(map(targets.__getitem__, islice(parts, 2, None, 4)))
        kcol.extend(map(targets.kinds.__getitem__, islice(parts, 2, None, 4)))
        marks.extend(map(bool, islice(parts, 3, None, 4)))
        del parts  # so that no two chunks' splits are alive at once
        line_no += len(chunk)
    marks = bytes(marks)
    _validate_columns(tcol, kcol, xcol, len(lock_ids))
    return Trace(
        tcol, kcol, xcol, marks, len(thread_ids), len(lock_ids), len(var_ids),
        tuple(thread_ids), tuple(lock_ids), tuple(var_ids),
    )


def _split_lines(chunk, line_no: int) -> list:
    """``_SPLIT_ROWS``'s flat split of ``chunk``, whose first line is
    ``line_no + 1``, built one line at a time: each line is decoded and
    stripped, blank and ``#`` lines are skipped, and the first other line
    that is not an event line raises."""
    parts = [""]
    for line_no, line in enumerate(chunk, start=line_no + 1):
        try:
            line = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise TraceSyntaxError(line_no, f"invalid UTF-8: {exc.reason}") from None
        if not line or line[0] == "#":
            continue
        row = _SPLIT_ROWS(line)
        if len(row) != 5:
            # The grammar refuses a mark on acq/rel, so a bad line that parses
            # unmarked once its "|*" is cut off is a marked acq/rel.
            row = _SPLIT_ROWS(line[:-2]) if line.endswith("|*") else ()
            raise TraceSyntaxError(line_no, (
                "mark on non-access event" if len(row) == 5 and row[3] is None
                else f"cannot parse {line!r}"
            ))
        parts += row[1:]
    return parts


def parse_trace(data) -> Trace:
    """Parse the text format, given as ``str`` or UTF-8 ``bytes``, into a
    validated Trace.

    A ``str`` is encoded to UTF-8 and read like ``bytes``, so both take one
    path; a lone surrogate in it is not UTF-8 and fails at its line like any
    undecodable byte.  Dense ids are assigned by first appearance,
    independently for threads, locks and variables.  Lines are parsed in
    order and the first malformed one is reported; the lock discipline is
    checked after the whole text has parsed.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    return _parse_lines(io.BytesIO(data))


def _lines(tr: Trace) -> Iterator[str]:
    """The text format of ``tr``, one newline-terminated line per event."""
    tokens = _TOKENS
    tables = (tr.lock_names, tr.lock_names, tr.var_names, tr.var_names)
    thread_names = tr.thread_names
    for t, k, x, m in zip(tr.threads, tr.kinds, tr.targets, tr.marks):
        yield (
            f"{thread_names[t]}|{tokens[k]}({tables[k][x]})|*\n" if m
            else f"{thread_names[t]}|{tokens[k]}({tables[k][x]})\n"
        )


def load_trace(path) -> Trace:
    """Parse a trace file line by line; the file is never held whole."""
    with open(path, "rb") as fh:
        return _parse_lines(fh)


def write_trace(tr: Trace, fh) -> None:
    """Write ``tr`` to the open text file ``fh`` in the text format, the
    inverse of ``parse_trace``, a few thousand lines at a time, so the whole
    text is never built."""
    lines = _lines(tr)
    while chunk := "".join(islice(lines, 4096)):
        fh.write(chunk)


# --- sampling -------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# ``bytes(kinds).translate(_ACCESS_MASK)``: 1 for each access event, 0 for
# each sync event.
_ACCESS_MASK = bytes(k in (READ, WRITE) for k in range(256))

# ``bernoulli_marks`` decides ``_LANES`` consecutive events at once, each in
# a 128-bit lane of one int: a lane holds a 64-bit value and has room for its
# product with a 64-bit constant, so no carry crosses into the next lane.
_LANES = 4096  # a power of two; an int of them is 64 KiB


@cache
def _lane_constants() -> Tuple[int, int, int]:
    """Ints of ``_LANES`` lanes: 1 in every lane, 2**64 - 1 in every lane,
    and ``j * GOLDEN`` in lane j."""
    ones, steps, k = 1, 0, 1  # k lanes so far
    while k < _LANES:
        steps |= (steps + k * ones) << (128 * k)  # lanes k..2k-1 hold k..2k-1
        ones |= ones << (128 * k)
        k *= 2
    return ones, ones * _MASK64, steps * _GOLDEN


def bernoulli_marks(kinds: Sequence[int], seed: int, rate: float) -> bytes:
    """The reproducible mark vector: 1 for each access event i (1-based)
    that ``seed`` and i select at ``rate``, 0 for every other event.

    Event i is selected when the 64-bit SplitMix finalizer of ``seed + i *
    GOLDEN`` (mod 2**64, GOLDEN = 0x9E3779B97F4A7C15) is below
    ``floor(rate * 2**64)``, so the decision depends only on (seed, i).  Lane
    j of a chunk starts as ``seed + i * GOLDEN`` for the chunk's j-th event
    i, and the finalizer runs on all lanes at once: each shift-XOR and each
    multiply is one int operation followed by a mask back to 64 bits per
    lane.  A lane holding z hits when ``2**64 - 1 + threshold - z`` reaches
    2**64, so byte 8 of the lane (its bit 64, little-endian) is 1 exactly
    for the hits, and one ``to_bytes(...)[8::16]`` reads them all.  The hits
    are ANDed with the access mask.  The temporaries are a few ints of
    ``_LANES`` lanes whatever the trace length.  The tests keep this rule,
    decided one event at a time, as its reference.
    """
    n = len(kinds)
    threshold = int(rate * (1 << 64))
    if threshold <= 0:
        return bytes(n)
    access = bytes(kinds).translate(_ACCESS_MASK)
    if threshold > _MASK64:  # every 64-bit value is below it
        return access
    ones, mask, steps = _lane_constants()
    limit = mask + threshold * ones
    out = bytearray()
    for lo in range(0, n, _LANES):
        z = ((seed + (lo + 1) * _GOLDEN & _MASK64) * ones + steps) & mask
        z = ((z ^ z >> 30) & mask) * _MIX1 & mask
        z = ((z ^ z >> 27) & mask) * _MIX2 & mask
        z = limit - ((z ^ z >> 31) & mask)
        chunk = access[lo:lo + _LANES]
        hits = z.to_bytes(16 * _LANES, "little")[8:16 * len(chunk):16]
        out += (
            int.from_bytes(hits, "little") & int.from_bytes(chunk, "little")
        ).to_bytes(len(chunk), "little")
    return bytes(out)


class SamplingPolicy:
    """Bernoulli sampling: each access event is marked with probability
    ``rate``, decided from (``seed``, event index) by ``bernoulli_marks``;
    rate 0 clears every mark.  A trace that keeps its own marks is not
    sampled at all."""

    __slots__ = ("rate", "seed")

    def __init__(self, rate: float, seed: int):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        self.rate = rate
        self.seed = seed

    @classmethod
    def bernoulli(cls, rate: float, seed: int) -> "SamplingPolicy":
        return cls(rate, seed)


def apply_sampling(tr: Trace, policy: SamplingPolicy) -> Trace:
    """Return ``tr`` with the marks ``policy`` chooses.

    Each access event is re-decided independently from (seed, event index),
    and at rate 0 every mark is cleared; synchronization events are never
    marked.  Only the mark vector is new; the other columns are shared with
    ``tr``.
    """
    return Trace(
        tr.threads, tr.kinds, tr.targets, bernoulli_marks(tr.kinds, policy.seed, policy.rate),
        tr.num_threads, tr.num_locks, tr.num_vars, tr.thread_names, tr.lock_names, tr.var_names,
    )
