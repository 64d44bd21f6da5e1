"""Differential fuzzing: every engine configuration matches the oracle."""

from hypothesis import given, settings

from conftest import valid_traces
from racelab.differential import diff_report
from racelab.history import EXTENDED, SAMPLED_ONLY
from racelab.trace import parse_trace


# The strategy writes traces the generator never makes: locks still held at
# the end, nested critical sections in any order, any thread at any step.  It
# is no substitute for the shrunk golden traces: a wider variant of it missed
# the unshare-fold bug (UNSHARE_FOLD_TEXT) in 1000 examples.
@settings(max_examples=150, deadline=None)
@given(valid_traces())
def test_every_configuration_matches_the_oracle_on_fuzzed_traces(case):
    tr = parse_trace(case[0])
    for mode in (SAMPLED_ONLY, EXTENDED):
        report = diff_report(tr, mode)
        assert report["verdict"] == "EQUIVALENT", (mode, report)
