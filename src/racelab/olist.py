"""Move-to-front ordered-list timestamps with copy-on-write sharing.

An OrderedList stores a vector timestamp as a doubly linked sequence of
(tid, time) entries, ordered by recency of update: every set moves the
touched entry to the head.  The d most recently changed entries are
therefore always a prefix.  Each list has an owner, the thread whose clock
it is, and links every thread's entry but the owner's: that entry is
private, so no walk reaches it, and the owner writes it in place through
``times``, even while views share the list.

The list keeps only what the orderedlist engine calls: O(1) ``set``,
``newer_in_prefix`` (the entries among the first k that are newer than
another list), the dense views ``times`` and ``snapshot``, and
``deep_copy``.

The list is array-backed: ``_time[t]`` is thread t's component, and
``_next[t]``/``_prev[t]`` are the neighbouring thread ids in list order, with
-1 as the null link and ``_head`` the first thread id.  A deep copy is three
list slices and a snapshot is one.  The initial links are slices of one
cached id list per width, so all lists of a width share one set of id ints:
an entry costs three list slots, 24 bytes on a 64-bit build, and no int
object of its own.

Sharing is single-writer copy-on-write.  A published view (a lock's
timestamp) is the list itself: whoever publishes it adds one to ``refs``,
and dropping a view is ``refs -= 1``.  ``refs`` counts the owner
plus every live view and is the only sharing state: the list is shared while
``refs > 1``.  A set on a shared list is a contract violation and raises;
once the last view is dropped the owner sets it in place again, and
``deep_copy`` materializes an exclusive copy at any time.
"""

from __future__ import annotations

from functools import cache
from typing import List, Sequence, Tuple


class SharedMutationError(RuntimeError):
    """A set was attempted through a shared (published) list."""


@cache
def _ids(width: int) -> List[int]:
    """``[-1, 0, 1, ..., width - 1, -1]``: the prev links are its first
    ``width`` items and the next links the rest after two; read-only."""
    return list(range(-1, width)) + [-1]


class OrderedList:
    """Array-backed doubly linked (tid, time) list with O(1) set."""

    __slots__ = ("_time", "_next", "_prev", "_head", "refs")

    def __init__(self, width: int, owner: int):
        ids = _ids(width)
        self._time = [0] * width
        self._next = ids[2:]
        self._prev = ids[:width]
        self._head = 0
        self.refs = 1  # the owner; each published view adds one
        # Unlink the owner's entry: its neighbours link past it.
        before, after = owner - 1, owner + 1 if owner + 1 < width else -1
        if before == -1:
            self._head = after
        else:
            self._next[before] = after
        if after != -1:
            self._prev[after] = before

    def set(self, tid: int, time: int) -> None:
        if self.refs > 1:
            raise SharedMutationError("set() on a shared ordered list")
        self._time[tid] = time
        head = self._head
        if tid == head:
            return
        nxt, prev = self._next, self._prev
        before, after = prev[tid], nxt[tid]
        nxt[before] = after  # tid is not the head, so it has a predecessor
        if after != -1:
            prev[after] = before
        prev[tid] = -1
        nxt[tid] = head
        prev[head] = tid
        self._head = tid

    def newer_in_prefix(self, k: int, other: "OrderedList") -> List[Tuple[int, int]]:
        """The (tid, time) pairs among the first ``min(k, width - 1)``
        entries whose time exceeds ``other``'s component for tid, in list
        order; read-only.  Every thread but the owner has one entry, so the
        walk needs no end test."""
        out: List[Tuple[int, int]] = []
        times, links, theirs = self._time, self._next, other._time
        tid = self._head
        for _ in range(min(k, len(times) - 1)):
            if times[tid] > theirs[tid]:
                out.append((tid, times[tid]))
            tid = links[tid]
        return out

    @property
    def times(self) -> Sequence[int]:
        """The live dense clock, not copied: component t is thread t's time.

        Read-only for callers, except the owner's entry, which the owner
        writes in place; it changes with the list, so read it at once.
        """
        return self._time

    def snapshot(self) -> List[int]:
        """A copy of ``times``."""
        return self._time[:]

    def deep_copy(self) -> "OrderedList":
        """Structurally identical, exclusively owned copy (same values, same order)."""
        out = OrderedList.__new__(OrderedList)
        out._time = self._time[:]
        out._next = self._next[:]
        out._prev = self._prev[:]
        out._head = self._head
        out.refs = 1
        return out
