"""The invariant checker catches planted engine bugs.

Each bug is one edit to the source of one engine method, compiled and
monkeypatched in for the test.  ``checked_engine`` must raise
``AssertionError`` on at least one trace of a fixed list, and the test pins
the first trace that catches it and the check that fails there; the real
engines pass on every trace.
"""

import inspect
import textwrap

import pytest

from conftest import handoff_trace, random_traces
from invariants import checked_engine
from racelab.engines import ENGINE_TOKENS, Engine
from racelab.engines.orderedlist import OrderedListEngine
from racelab.engines.sampling import SamplingEngine
from racelab.engines.uclock import UclockEngine
from racelab.history import EXTENDED, SAMPLED_ONLY
from racelab.olist import OrderedList


def _traces():
    """``(name, trace)``: 60 generator traces at mixed rates, then two
    threads handing one lock back and forth."""
    out = [(f"random_traces(65)[{i}]", tr) for i, (tr, _) in enumerate(random_traces(65, 60))]
    return out + [("handoff_trace(5)", handoff_trace(5))]


TRACES = _traces()


def _planted(cls, method: str, old: str, new: str):
    """``cls.method`` with the one source fragment ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, method)))
    assert source.count(old) == 1, f"{cls.__name__}.{method} has no single {old!r}"
    namespace = dict(vars(inspect.getmodule(cls)))
    exec(compile(source.replace(old, new), f"<planted {method}>", "exec"), namespace)
    return namespace[method]


# A fold one epoch ahead: the race checks ignore the own component, so
# only the own-component check sees it.
_FOLD_AHEAD = (Engine, "_release",
               "self.rows[thread][thread] = self.epochs[thread]",
               "self.rows[thread][thread] = self.epochs[thread] + 1")

# (name, class, method, source fragment, its replacement, engine tokens run,
# the first trace that catches it, a fragment of the failed check's message)
BUGS = [
    ("publish-keeps-old-view-ref", OrderedListEngine, "_publish",
     "self.published[lock][0].refs -= 1", "pass",
     ("orderedlist",), "random_traces(65)[0]", "refs 3, 1 views"),
    ("guard-lets-self-handoff-through", OrderedListEngine, "_acquire",
     "if freshness <= ut[lr]:", "if freshness <= ut[lr] and lr != t:",
     ("orderedlist",), "random_traces(65)[0]", "re-acquired lock 0 without a skip"),
    ("lock-freshness-above-thread", UclockEngine, "_publish",
     "self.u_locks[lock] = list(ut)", "self.u_locks[lock] = list(ut); self.u_locks[lock][t] += 1",
     ("uclock",), "random_traces(65)[0]", "published own freshness 2 to lock 0"),
    # A release that publishes the epoch before its last: acquirers miss
    # the releaser's last epoch.
    ("lock-epoch-one-behind", OrderedListEngine, "_publish",
     "self.epochs[t] - 1", "self.epochs[t] - 2",
     ("orderedlist",), "random_traces(65)[0]", "epoch 0) to lock 0, not"),
    # One plant in the shared release step, run twice: the first catch
    # stops the search, so with all four tokens orderedlist would never run.
    ("fold-writes-next-epoch", *_FOLD_AHEAD,
     ("sampling", "uclock", "djitp"), "random_traces(65)[0]", "own component 2, epoch 2"),
    ("fold-writes-next-epoch-orderedlist", *_FOLD_AHEAD,
     ("orderedlist",), "random_traces(65)[0]", "own component 2, epoch 2"),
    # A release that ends an epoch without counting the own write as a
    # freshness change: acquirers and the copy guard miss it.
    ("publish-drops-fold-bump", UclockEngine, "_publish",
     "ut[t] += 1", "pass",
     ("uclock",), "random_traces(65)[0]", "published clock [0,"),
    ("publish-drops-fold-bump-orderedlist", OrderedListEngine, "_publish",
     "self.u_threads[t][t] += 1", "pass",
     ("orderedlist",), "random_traces(65)[0]", "lock 4 clock decreased"),
    # Lists that link their owner's entry: a prefix walk may then reach an
    # entry the owner writes in place.
    ("owner-entry-linked", OrderedList, "__init__",
     "nxt[prev[owner]] = nxt[owner]", "return",
     ("orderedlist",), "random_traces(65)[0]", "owner 0's list links [0, 1"),
    ("join-overwrites", SamplingEngine, "_acquire",
     "if c > ct[s]:", "if c != ct[s]:",
     ("sampling", "djitp"), "random_traces(65)[0]", "clock decreased"),
    # A deep copy that leaves ``rows`` on the old list: the race checks
    # would read a clock the thread no longer updates.
    ("copy-skips-rows-update", OrderedListEngine, "_acquire",
     "self.rows[t] = lst.times", "pass",
     ("orderedlist",), "random_traces(65)[0]", "is not thread 3's live clock"),
    # Release writes into the lock's row, which before its first release is
    # the bottom row every unreleased lock shares.
    ("publish-writes-lock-row-in-place", SamplingEngine, "_publish",
     "self.c_locks[lock] = list(self.c_threads[t])", "self.c_locks[lock][:] = self.c_threads[t]",
     ("sampling", "djitp"), "random_traces(65)[0]", "bottom row changed"),
    ("publish-writes-freshness-row-in-place", UclockEngine, "_publish",
     "self.u_locks[lock] = list(ut)", "self.u_locks[lock][:] = ut",
     ("uclock",), "random_traces(65)[0]", "bottom row changed"),
]


def _first_catch(tokens):
    """``(trace name, message)`` of the first checked run that fails, or None."""
    for name, tr in TRACES:
        for token in tokens:
            for mode in (SAMPLED_ONLY, EXTENDED):
                try:
                    checked_engine(token, tr, mode=mode).run(tr)
                except AssertionError as error:
                    return name, str(error)
    return None


def test_the_real_engines_pass_the_checker():
    assert _first_catch(ENGINE_TOKENS) is None


@pytest.mark.parametrize(
    "cls, method, old, new, tokens, caught_by, check",
    [pytest.param(*bug[1:], id=bug[0]) for bug in BUGS],
)
def test_the_checker_catches_a_planted_bug(monkeypatch, cls, method, old, new, tokens, caught_by,
                                           check):
    monkeypatch.setattr(cls, method, _planted(cls, method, old, new))
    caught = _first_catch(tokens)
    assert caught is not None and caught[0] == caught_by and check in caught[1], caught
