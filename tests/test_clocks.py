"""The acquire join: each timestamp engine joins the lock's clock into the
acquiring thread's clock in place, component-wise max, with its own loop."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from racelab.engines.sampling import SamplingEngine
from racelab.engines.uclock import UclockEngine

ENGINES = {"sampling": SamplingEngine, "uclock": UclockEngine}
engines = pytest.mark.parametrize("engine", sorted(ENGINES))


def clocks(n, max_width=6, max_value=50):
    """``n`` clocks of one width."""
    return st.integers(1, max_width).flatmap(lambda w: st.lists(
        st.lists(st.integers(0, max_value), min_size=w, max_size=w),
        min_size=n, max_size=n))


def acquire(a, b, engine):
    """A thread holding clock ``a`` acquires lock 0, whose clock is ``b``.

    For sampling the acquirer is thread 0.  For uclock it is thread
    ``len(a)``, an extra thread whose component both clocks hold at 0:
    thread 0 released the lock last, and the lock is fresher than the
    acquirer on every component of ``a``, so the acquire joins them all
    instead of skipping.  Returns the engine and the acquirer after the
    acquire; ``a`` and ``b`` stay unchanged.
    """
    if engine == "sampling":
        e, t = SamplingEngine(len(a), 1, 0), 0
    else:
        e, t = UclockEngine(len(a) + 1, 1, 0), len(a)
        e.u_locks[0][:t] = [1] * t
        a, b = a + [0], b + [0]
    e.c_threads[t] = list(a)
    e.c_locks[0] = list(b)
    e._acquire(0, t, 0, False)
    assert e.c_locks[0] == b
    return e, t


def join(a, b, engine):
    """The acquirer's clock after the join, on ``a``'s components."""
    e, t = acquire(a, b, engine)
    return e.c_threads[t][:len(a)]


@engines
def test_join_identity_and_examples(engine):
    assert join([0, 0], [3, 1], engine) == [3, 1]
    assert join([1, 0], [0, 1], engine) == [1, 1]
    assert join([2, 0], [1, 0], engine) == [2, 0]


@engines
@given(data=st.data())
def test_join_matches_pointwise_max_oracle(engine, data):
    a, b = data.draw(clocks(2))
    assert join(a, b, engine) == [max(x, y) for x, y in zip(a, b)]


@engines
@given(data=st.data())
def test_leq_of_join_property(engine, data):
    a, b = data.draw(clocks(2))
    j = join(a, b, engine)
    assert all(x <= y for x, y in zip(a, j))
    assert all(x <= y for x, y in zip(b, j))


@engines
@given(data=st.data())
def test_join_commutative_idempotent_identity(engine, data):
    a, b = data.draw(clocks(2))
    assert join(a, b, engine) == join(b, a, engine)
    assert join(a, a, engine) == a
    assert join(a, [0] * len(a), engine) == a


@engines
@given(data=st.data())
def test_join_associative(engine, data):
    a, b, c = data.draw(clocks(3, max_width=5, max_value=20))
    assert join(join(a, b, engine), c, engine) == join(a, join(b, c, engine), engine)


@engines
@given(data=st.data())
def test_only_touched_component_changes(engine, data):
    a, b = data.draw(clocks(2))
    e, t = acquire(a, b, engine)
    dst = e.c_threads[t]
    raised = [i for i in range(len(a)) if b[i] > a[i]]
    assert [i for i in range(len(a)) if dst[i] != a[i]] == raised
    if engine == "uclock":
        # the acquirer's own freshness counts the components the join changed
        assert e.u_threads[t][t] == len(raised)


def test_join_into_counts_changes():
    e, t = acquire([2, 0, 5], [1, 3, 5], "uclock")
    assert e.c_threads[t] == [2, 3, 5, 0]
    # the lock's freshness, then the one change in the acquirer's own
    assert e.u_threads[t] == [1, 1, 1, 1]
    assert e.metrics.full_traversals == 2


@engines
def test_bottom_helper(engine):
    e = ENGINES[engine](4, 3, 0)
    assert e.c_threads == [[0, 0, 0, 0]] * 4
    assert e.c_locks == [[0, 0, 0, 0]] * 3
    if engine == "uclock":
        assert e.u_threads == [[0, 0, 0, 0]] * 4
        assert e.u_locks == [[0, 0, 0, 0]] * 3
