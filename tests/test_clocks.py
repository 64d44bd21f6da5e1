import pytest
from hypothesis import given
from hypothesis import strategies as st

from racelab.clocks import WidthMismatchError, bottom, join_into

clock_pairs = st.integers(1, 6).flatmap(
    lambda w: st.tuples(
        st.lists(st.integers(0, 50), min_size=w, max_size=w),
        st.lists(st.integers(0, 50), min_size=w, max_size=w),
    )
)


def join(a, b):
    """Join of two clocks through ``join_into``, leaving both unchanged."""
    out = list(a)
    join_into(out, b)
    return out


def test_join_identity_and_examples():
    assert join(bottom(2), [3, 1]) == [3, 1]
    assert join([1, 0], [0, 1]) == [1, 1]
    assert join([2, 0], [1, 0]) == [2, 0]


@given(clock_pairs)
def test_join_matches_pointwise_max_oracle(pair):
    a, b = pair
    assert join(a, b) == [max(x, y) for x, y in zip(a, b)]


@given(clock_pairs)
def test_leq_of_join_property(pair):
    a, b = pair
    j = join(a, b)
    assert all(x <= y for x, y in zip(a, j))
    assert all(x <= y for x, y in zip(b, j))


@given(clock_pairs)
def test_join_commutative_idempotent_identity(pair):
    a, b = pair
    assert join(a, b) == join(b, a)
    same = list(a)
    assert join_into(same, a) == 0 and same == a
    assert join(a, bottom(len(a))) == a


@given(st.integers(1, 5).flatmap(lambda w: st.lists(
    st.lists(st.integers(0, 20), min_size=w, max_size=w), min_size=3, max_size=3)))
def test_join_associative(triple):
    a, b, c = triple
    assert join(join(a, b), c) == join(a, join(b, c))


@given(clock_pairs)
def test_only_touched_component_changes(pair):
    a, b = pair
    dst = list(a)
    changed = join_into(dst, b)
    raised = [i for i in range(len(a)) if b[i] > a[i]]
    assert changed == len(raised)
    assert [i for i in range(len(a)) if dst[i] != a[i]] == raised


def test_errors():
    dst = [1]
    with pytest.raises(WidthMismatchError):
        join_into(dst, [1, 2])
    with pytest.raises(ValueError):
        join_into([1, 2], [1])
    assert dst == [1]


def test_join_into_counts_changes():
    dst = [2, 0, 5]
    assert join_into(dst, [1, 3, 5]) == 1
    assert dst == [2, 3, 5]


def test_bottom_helper():
    assert bottom(4) == [0, 0, 0, 0]
