"""The acquire join: each timestamp engine joins the lock's clock into the
acquiring thread's clock in place, component-wise max, with its own loop."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from racelab.engines.sampling import SamplingEngine
from racelab.engines.uclock import UclockEngine

ENGINES = {"sampling": SamplingEngine, "uclock": UclockEngine}
# A uclock join needs a last releaser other than the acquirer: width >= 2.
MIN_WIDTH = {"sampling": 1, "uclock": 2}
engines = pytest.mark.parametrize("engine", sorted(ENGINES))


def clocks(engine, n, max_width=6, max_value=50):
    """``n`` clocks of one width, drawn for ``engine``."""
    return st.integers(MIN_WIDTH[engine], max_width).flatmap(lambda w: st.lists(
        st.lists(st.integers(0, max_value), min_size=w, max_size=w),
        min_size=n, max_size=n))


def acquire(a, b, engine):
    """Thread 0 holds clock ``a`` and acquires lock 0, whose clock is ``b``.

    For uclock, thread 1 released the lock last and the lock knows it fresher
    than thread 0 does, so the acquire joins instead of skipping.  Returns
    the engine after the acquire; ``a`` and ``b`` stay unchanged.
    """
    e = ENGINES[engine](len(a), 1, 0)
    e.c_threads[0] = list(a)
    e.c_locks[0] = list(b)
    if engine == "uclock":
        e.last_releaser[0] = 1
        e.u_locks[0][1] = 1
    e._acquire(0, 0, 0, False)
    assert e.c_locks[0] == b
    return e


def join(a, b, engine):
    return acquire(a, b, engine).c_threads[0]


@engines
def test_join_identity_and_examples(engine):
    assert join([0, 0], [3, 1], engine) == [3, 1]
    assert join([1, 0], [0, 1], engine) == [1, 1]
    assert join([2, 0], [1, 0], engine) == [2, 0]


@engines
@given(data=st.data())
def test_join_matches_pointwise_max_oracle(engine, data):
    a, b = data.draw(clocks(engine, 2))
    assert join(a, b, engine) == [max(x, y) for x, y in zip(a, b)]


@engines
@given(data=st.data())
def test_leq_of_join_property(engine, data):
    a, b = data.draw(clocks(engine, 2))
    j = join(a, b, engine)
    assert all(x <= y for x, y in zip(a, j))
    assert all(x <= y for x, y in zip(b, j))


@engines
@given(data=st.data())
def test_join_commutative_idempotent_identity(engine, data):
    a, b = data.draw(clocks(engine, 2))
    assert join(a, b, engine) == join(b, a, engine)
    assert join(a, a, engine) == a
    assert join(a, [0] * len(a), engine) == a


@engines
@given(data=st.data())
def test_join_associative(engine, data):
    a, b, c = data.draw(clocks(engine, 3, max_width=5, max_value=20))
    assert join(join(a, b, engine), c, engine) == join(a, join(b, c, engine), engine)


@engines
@given(data=st.data())
def test_only_touched_component_changes(engine, data):
    a, b = data.draw(clocks(engine, 2))
    e = acquire(a, b, engine)
    dst = e.c_threads[0]
    raised = [i for i in range(len(a)) if b[i] > a[i]]
    assert [i for i in range(len(a)) if dst[i] != a[i]] == raised
    if engine == "uclock":
        # the acquirer's own freshness counts the components the join changed
        assert e.u_threads[0][0] == len(raised)


def test_join_into_counts_changes():
    e = acquire([2, 0, 5], [1, 3, 5], "uclock")
    assert e.c_threads[0] == [2, 3, 5]
    assert e.u_threads[0] == [1, 1, 0]
    assert e.metrics.full_traversals == 2


@engines
def test_bottom_helper(engine):
    e = ENGINES[engine](4, 3, 0)
    assert e.c_threads == [[0, 0, 0, 0]] * 4
    assert e.c_locks == [[0, 0, 0, 0]] * 3
    if engine == "uclock":
        assert e.u_threads == [[0, 0, 0, 0]] * 4
        assert e.u_locks == [[0, 0, 0, 0]] * 3
