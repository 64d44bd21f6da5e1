"""Differential fuzzing: every engine matches the oracle."""

import pytest
from hypothesis import Phase, given, settings

from conftest import LADDER_TEXT, critical_section_traces, valid_traces
from racelab.differential import diff_report, racy_divergence
from racelab.engines import ENGINE_TOKENS, create_engine
from racelab.history import EXTENDED, SAMPLED_ONLY
from racelab.trace import parse_trace

# Every phase but shrinking: a failing example still fails and is saved to
# the example database, but a broken engine fails the test about as fast as
# a working one passes it, not after minutes of shrinking each trace.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


# The strategy writes traces the generator never makes: locks still held at
# the end, nested critical sections in any order, any thread at any step.  It
# is no substitute for the shrunk golden traces: a wider variant of it missed
# the unshare-fold bug (UNSHARE_FOLD_TEXT) in 1000 examples.
@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(valid_traces())
def test_every_configuration_matches_the_oracle_on_fuzzed_traces(case):
    tr = parse_trace(case[0])
    for mode in (SAMPLED_ONLY, EXTENDED):
        report = diff_report(tr, mode)
        assert report["verdict"] == "EQUIVALENT", (mode, report)


# Generator-shaped traces: nested critical sections, hand-offs between
# threads and random marks, so lock views, freshness skips and epoch folds
# interact the way they do on ``racelab gen`` traces.  A wrong write-epoch
# compare or a read check that counts the thread's own reads fails within a
# handful of examples.  The unshare-fold bug of the earlier lazy-fold
# orderedlist (UNSHARE_FOLD_TEXT) needed a longer hand-off chain: in five
# seeded runs this strategy took 223 to 1243 examples to find it, so the
# golden trace stays as a regression test.
@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(critical_section_traces())
def test_every_configuration_matches_the_oracle_on_critical_section_traces(text):
    tr = parse_trace(text)
    for mode in (SAMPLED_ONLY, EXTENDED):
        report = diff_report(tr, mode)
        assert report["verdict"] == "EQUIVALENT", (mode, report)


def test_diff_builds_no_event_views():
    # The oracle and the engines read the columns; ``Trace.events`` stays unbuilt.
    tr = parse_trace(LADDER_TEXT)
    for mode in (SAMPLED_ONLY, EXTENDED):
        assert diff_report(tr, mode)["verdict"] == "EQUIVALENT"
        assert tr._events is None


def test_create_engine_rejects_unknown_tokens_and_options():
    # A misspelt token must not build some other engine.
    tr = parse_trace(LADDER_TEXT)
    with pytest.raises(ValueError, match="'samplng'"):
        create_engine("samplng", tr)
    # diff runs one configuration per engine; orderedlist has no second one.
    with pytest.raises(ValueError, match="'orderedlist-noopt'"):
        create_engine("orderedlist-noopt", tr)
    # The engines have no self-checking mode: tests/invariants.py checks them.
    for token in ENGINE_TOKENS:
        with pytest.raises(TypeError, match="debug"):
            create_engine(token, tr, debug=True)
    engine = create_engine("sampling", tr)
    engine.run(tr)
    assert racy_divergence(tr, SAMPLED_ONLY, {"sampling": engine.racy_set()}) is None
