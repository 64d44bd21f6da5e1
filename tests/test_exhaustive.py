"""Every disciplined trace of scope (2, 1, 1) up to 4 events, in both modes:
the engines match the oracle and pass the invariant checker
(``tests/exhaustive.py``; CI runs larger scopes with ``diff_report`` only)."""

from conftest import trace_text
from exhaustive import first_failure
from racelab.engines.sampling import SamplingEngine


def test_every_small_trace_matches_the_oracle_and_passes_the_checker():
    runs, failed = first_failure([(2, 1, 1)], 4, checked=True)
    assert failed is None, "{1}\n{0}".format(trace_text(failed[0]), failed[1])
    assert runs == 5074


def test_the_first_failure_is_a_smallest_trace(monkeypatch):
    # A release that publishes its own component one ahead: djitp folds at
    # every release, so one hand-off shows it.
    publish = SamplingEngine._publish

    def publish_one_ahead(self, t, lock, folded):
        if folded:
            self.c_threads[t][t] += 1
        publish(self, t, lock, folded)

    monkeypatch.setattr(SamplingEngine, "_publish", publish_one_ahead)
    runs, (tr, what) = first_failure([(2, 1, 1)], 4)
    assert trace_text(tr) == "T0|acq(l0)\nT0|rel(l0)\nT1|acq(l0)\n"
    assert what.startswith("diff_report, sampled-only: ") and "'engine': 'djitp'" in what
    assert runs == 5 + 49 + 6  # every trace of 1 and 2 events passes first
