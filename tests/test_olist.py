import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from racelab import olist
from racelab.olist import OrderedList, SharedMutationError


def new(width):
    """A list linking ``width`` entries, threads 0 to ``width - 1``: its
    owner is one more thread, ``width``, whose entry no walk reaches."""
    return OrderedList(width + 1, width)


def walk(o, links):
    """The list's (tid, time) entries read off ``links`` (``o._next`` or
    ``o._prev``) from the sentinel's; a cycle stops the walk one entry past
    the list's width."""
    out, tid = [], links[-1]
    while tid != -1 and len(out) <= len(o.times):
        out.append((tid, o.times[tid]))
        tid = links[tid]
    return out


def order(o):
    """The list's (tid, time) entries, head first."""
    return walk(o, o._next)


def bump(o, tid, k):
    """Add ``k`` to thread ``tid``'s component; moves it to the head."""
    o.set(tid, o.times[tid] + k)


def mutate(o, op, tid, val):
    """Apply one drawn ``("set" | "inc", tid, val)`` mutation."""
    if op == "set":
        o.set(tid, val)
    else:
        bump(o, tid, val)


def publish(o):
    """A read-only view of ``o`` as the engine publishes one: the list
    itself, with one more ref."""
    o.refs += 1
    return o


def olist_lines(call, *args):
    """Lines of ``olist.py`` executed by ``call(*args)``."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == olist.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return lines


def five_thread_list():
    """The five-thread example list: values t1:6 t2:20 t3:8 t4:0 t5:1,
    list order (head first) t1, t2, t5, t3, t4.  The named threads t1..t5 map to
    dense ids 0..4."""
    o = new(5)
    for tid, time in [(3, 0), (2, 8), (4, 1), (1, 20), (0, 6)]:
        o.set(tid, time)
    return o


def test_fresh_list_is_bottom_in_tid_order():
    # Every thread's entry but the owner's is linked, in tid order.
    for owner in range(4):
        o = OrderedList(4, owner)
        assert order(o) == [(t, 0) for t in range(4) if t != owner]
        assert o.snapshot() == [0, 0, 0, 0]
    assert order(OrderedList(1, 0)) == [] and OrderedList(1, 0).snapshot() == [0]
    assert order(OrderedList(0, 0)) == [] and OrderedList(0, 0).snapshot() == []


def test_five_thread_list_values_and_get():
    o = five_thread_list()
    assert o.times[2] == 8  # t3 maps to 8
    assert o.snapshot() == [6, 20, 8, 0, 1, 0]
    assert order(o) == [(0, 6), (1, 20), (4, 1), (2, 8), (3, 0)]


def test_example_list_mutations():
    o = five_thread_list()
    o.set(3, 6)  # t4 <- 6 moves to head
    assert order(o)[0] == (3, 6)
    o.set(0, o.times[0] + 1)  # t1 +1 -> 7, moves to head
    assert order(o)[0] == (0, 7)
    assert o.newer_in_prefix(2, new(5)) == [(0, 7), (3, 6)]
    assert order(o) == [(0, 7), (3, 6), (1, 20), (4, 1), (2, 8)]


def test_get_after_set_and_head_stability():
    o = new(3)
    o.set(1, 5)
    assert o.times[1] == 5
    o.set(1, 6)  # head thread stays at head
    assert order(o)[0] == (1, 6)


def test_newer_in_prefix_bounds():
    o, bottom = five_thread_list(), new(5)
    assert o.newer_in_prefix(0, bottom) == []
    # k > T reads the whole list and stops at its end, short of the owner
    o.times[5] = 3
    assert o.newer_in_prefix(6 + 6, bottom) == [(0, 6), (1, 20), (4, 1), (2, 8)]


def test_deep_copy_isolation_and_structure():
    o = five_thread_list()
    c = o.deep_copy()
    assert order(c) == order(o)
    c.set(2, 99)
    assert o.times[2] == 8


def test_lists_of_one_width_share_their_id_ints():
    # Three list slots per entry, 24 bytes on a 64-bit build; an int object
    # of its own for each link would add about 48.
    width, count = 1018, 64
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        lists = [new(width) for _ in range(count)]
        used, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert used - base <= 32 * (width + 1) * count, used - base
    assert lists[0]._next[500] is lists[-1]._next[500]  # 501, above the small ints
    assert order(lists[-1]) == [(tid, 0) for tid in range(width)]


def test_shared_view_blocks_mutation():
    o = new(3)
    view = publish(o)
    assert view is o and o.refs == 2
    assert view.snapshot() == o.snapshot()
    with pytest.raises(SharedMutationError):
        o.set(0, 1)
    with pytest.raises(SharedMutationError):
        bump(o, 1, 1)
    assert o.snapshot() == [0, 0, 0, 0]
    o.times[3] = 2  # the owner writes its own entry in place, shared or not
    assert order(o) == [(0, 0), (1, 0), (2, 0)]
    fresh = o.deep_copy()
    fresh.set(0, 1)  # exclusive copy is mutable while the view lives
    assert fresh.times[0] == 1 and fresh.refs == 1
    with pytest.raises(SharedMutationError):
        o.set(0, 1)


def test_share_count_tracking():
    o = new(2)
    v1, v2 = publish(o), publish(o)
    assert o.refs == 3
    v1.refs -= 1
    assert o.refs == 2
    assert v2 is o


def test_snapshot_ignores_order():
    a = new(3)
    b = new(3)
    a.set(0, 1)
    a.set(2, 4)
    b.set(2, 4)
    b.set(0, 1)
    assert a.snapshot() == b.snapshot()
    assert order(a) != order(b)


ops = st.lists(
    st.tuples(st.sampled_from(["set", "inc"]), st.integers(0, 4), st.integers(0, 9)),
    max_size=60,
)


@given(ops)
def test_order_is_reverse_of_last_mutation_times(mutations):
    o = new(5)
    last_touch = {}
    for step, (op, tid, val) in enumerate(mutations):
        mutate(o, op, tid, val)
        last_touch[tid] = step
    touched = sorted(last_touch, key=lambda t: last_touch[t], reverse=True)
    untouched = [t for t in range(5) if t not in last_touch]
    assert [tid for tid, _ in order(o)] == touched + untouched


def test_constant_work_per_operation():
    """A set runs as many lines of ``olist.py`` at 4096 threads as at 5:
    the worst case over 600 random calls is the same at both widths."""
    worst = {}
    for width in (5, 4096):
        rng, o = random.Random(width), new(width)
        for _ in range(600):
            lines = olist_lines(o.set, rng.randrange(width), rng.randrange(10))
            worst[width] = max(worst.get(width, 0), lines)
    assert worst[5] == worst[4096] > 0


@given(ops)
def test_deep_copy_preserves_structure(mutations):
    o = new(5)
    for op, tid, val in mutations:
        mutate(o, op, tid, val)
    assert order(o.deep_copy()) == order(o)


@given(ops, ops, st.integers(0, 7))
def test_newer_in_prefix_filters_prefix(mutations, other_mutations, k):
    o, other = new(5), new(5)
    for lst, muts in ((o, mutations), (other, other_mutations)):
        for op, tid, val in muts:
            mutate(lst, op, tid, val)
    want = [(tid, n) for tid, n in order(o)[:k] if n > other.times[tid]]
    assert o.newer_in_prefix(k, other) == want
    assert publish(o).newer_in_prefix(k, other) == want


def test_unshare_waits_for_the_last_view():
    o = new(3)
    o.set(1, 2)  # never shared: mutable
    v1, v2 = publish(o), publish(o)
    v1.refs -= 1
    with pytest.raises(SharedMutationError):
        o.set(0, 4)  # one view is still live
    v2.refs -= 1
    assert o.refs == 1
    o.set(0, 4)  # mutable in place again, with no copy
    assert order(o)[:2] == [(0, 4), (1, 2)]


WIDTH = 4


class OrderedListModel(RuleBasedStateMachine):
    """Mixed mutations, owner writes, views, view drops and deep copies
    against a reference model: a value per thread plus the linked thread ids
    ordered by recency of update.  The list is shared exactly while it has
    a live view (``refs > 1``); the owner, thread ``WIDTH``, writes its own
    entry in place at any time."""

    def __init__(self):
        super().__init__()
        self.lst = new(WIDTH)
        self.values = [0] * (WIDTH + 1)
        self.order = list(range(WIDTH))
        self.refs = {id(self.lst): 1}
        self.views = []  # live views, of the current list or of older copies

    def _mutate(self, tid, apply):
        if self.refs[id(self.lst)] > 1:  # a view is live
            with pytest.raises(SharedMutationError):
                apply()
            return
        apply()
        self.order.remove(tid)
        self.order.insert(0, tid)

    @rule(tid=st.integers(0, WIDTH - 1), val=st.integers(0, 9))
    def set(self, tid, val):
        def apply():
            self.lst.set(tid, val)
            self.values[tid] = val
        self._mutate(tid, apply)

    @rule(tid=st.integers(0, WIDTH - 1), k=st.integers(0, 9))
    def increment(self, tid, k):
        def apply():
            bump(self.lst, tid, k)
            self.values[tid] += k
        self._mutate(tid, apply)

    @rule(val=st.integers(0, 9))
    def own(self, val):
        self.lst.times[WIDTH] = val
        self.values[WIDTH] = val

    @rule()
    def publish_view(self):
        self.views.append(publish(self.lst))
        self.refs[id(self.lst)] += 1

    @precondition(lambda self: self.views)
    @rule(pick=st.integers(0, 1_000))
    def release(self, pick):
        view = self.views.pop(pick % len(self.views))
        view.refs -= 1
        self.refs[id(view)] -= 1

    @rule()
    def deep_copy(self):
        fresh = self.lst.deep_copy()
        assert fresh is not self.lst
        self.lst = fresh
        self.refs[id(fresh)] = 1

    @invariant()
    def matches_model(self):
        o = self.lst
        assert o.snapshot() == self.values
        pairs = [(tid, self.values[tid]) for tid in self.order]
        assert order(o) == pairs
        assert walk(o, o._prev) == pairs[::-1]  # tail first
        for k in range(WIDTH + 2):
            assert o.newer_in_prefix(k, new(WIDTH)) == [p for p in pairs[:k] if p[1] > 0]
        for target in self.views + [o]:
            assert target.refs == self.refs[id(target)]


TestOrderedListModel = OrderedListModel.TestCase
