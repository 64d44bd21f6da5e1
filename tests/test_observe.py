"""``observe`` watches an engine from outside and changes nothing it does.

It replaces the four handlers with instance attributes; an engine that is
never observed keeps the class's handlers, and one observed twice hands
each event's ``(index, effective timestamp)`` to both hooks, in trace order.
"""

from itertools import product

import pytest

from conftest import random_traces
from racelab.engines import ENGINE_TOKENS, create_engine, observe
from racelab.history import EXTENDED, SAMPLED_ONLY

HANDLERS = ("_acquire", "_release", "_read", "_write")


@pytest.mark.parametrize("token, mode", product(ENGINE_TOKENS, (SAMPLED_ONLY, EXTENDED)))
def test_observing_changes_no_race_and_no_counter(token, mode):
    for marked, _ in random_traces(seed=71, count=40):
        plain = create_engine(token, marked, mode=mode)
        assert not set(HANDLERS) & set(vars(plain))
        watched = create_engine(token, marked, mode=mode)
        first, second = [], []
        observe(watched, lambda index, eff: first.append((index, eff)))
        observe(watched, lambda index, eff: second.append((index, eff)))
        assert set(HANDLERS) <= set(vars(watched))
        assert watched.run(marked) == plain.run(marked)
        assert watched.metrics.as_dict() == plain.metrics.as_dict()
        assert first == second
        assert [index for index, _ in first] == list(range(1, len(marked) + 1))
        assert not set(HANDLERS) & set(vars(plain))
