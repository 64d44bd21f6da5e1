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
another list), the dense clock ``times``, ``snapshot`` and ``deep_copy``.

The list is array-backed: ``times[t]`` is thread t's component, and
``_next[t]``/``_prev[t]`` are the neighbouring thread ids in list order.
The links form a ring through one extra slot, the sentinel, at index -1:
``_next[-1]`` is the head and ``_prev[-1]`` the tail, and the first entry's
prev and the last entry's next are -1.  A deep copy is three list slices
and a snapshot is one.  The initial links are slices of one cached id list
per width, so all lists of a width share one set of id ints: an entry costs
three list slots, 24 bytes on a 64-bit build, and no int object of its own.

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
from typing import List, Tuple


class SharedMutationError(RuntimeError):
    """A set was attempted through a shared (published) list."""


@cache
def _ids(width: int) -> List[int]:
    """``[-1, 0, ..., width - 1, -1, 0 if width else -1]``: the prev links
    are its first ``width + 1`` items and the next links the rest after
    two; read-only."""
    return list(range(-1, width)) + [-1, 0 if width else -1]


class OrderedList:
    """Array-backed doubly linked (tid, time) ring with O(1) set.

    ``times`` is the live dense clock, not copied: component t is thread
    t's time.  It is read-only for callers, except the owner's entry, which
    the owner writes in place; it changes with the list, so read it at once.
    """

    __slots__ = ("times", "_next", "_prev", "refs")

    def __init__(self, width: int, owner: int):
        ids = _ids(width)
        self.times = [0] * width
        self._next = nxt = ids[2:]
        self._prev = prev = ids[:width + 1]
        self.refs = 1  # the owner; each published view adds one
        # Unlink the owner's entry: its neighbours link past it.
        nxt[prev[owner]] = nxt[owner]
        prev[nxt[owner]] = prev[owner]

    def set(self, tid: int, time: int) -> None:
        """Write tid's component and move its entry to the head: unlink
        it, then link it after the sentinel, even if it was the head."""
        if self.refs > 1:
            raise SharedMutationError("set() on a shared ordered list")
        self.times[tid] = time
        nxt, prev = self._next, self._prev
        before, after = prev[tid], nxt[tid]
        nxt[before] = after
        prev[after] = before
        head = nxt[-1]
        nxt[tid] = head
        prev[head] = tid
        prev[tid] = -1
        nxt[-1] = tid

    def newer_in_prefix(self, k: int, other: "OrderedList") -> List[Tuple[int, int]]:
        """The (tid, time) pairs among the first ``min(k, width - 1)``
        entries whose time exceeds ``other``'s component for tid, in list
        order; read-only.  Every thread but the owner has one entry, so the
        walk needs no end test."""
        out: List[Tuple[int, int]] = []
        times, links, theirs = self.times, self._next, other.times
        tid = links[-1]
        for _ in range(min(k, len(times) - 1)):
            if times[tid] > theirs[tid]:
                out.append((tid, times[tid]))
            tid = links[tid]
        return out

    def snapshot(self) -> List[int]:
        """A copy of ``times``."""
        return self.times[:]

    def deep_copy(self) -> "OrderedList":
        """Structurally identical, exclusively owned copy (same values, same order)."""
        out = OrderedList.__new__(OrderedList)
        out.times = self.times[:]
        out._next = self._next[:]
        out._prev = self._prev[:]
        out.refs = 1
        return out
