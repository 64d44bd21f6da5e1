import json

from conftest import empty_trace, random_traces
from racelab.engines import create_engine
from racelab.metrics import emit, emit_csv_rows
from racelab.trace import SamplingPolicy, apply_sampling


def test_empty_trace_all_zero():
    tr = empty_trace(1, 1, 1)
    e = create_engine("uclock", tr)
    e.run(tr)
    m = e.metrics
    assert m.events_total == 0 and m.race_count == 0
    assert m.skip_ratio == 0.0 and m.saving_ratio == 0.0
    row = json.loads(emit(m))
    assert row["skip_ratio"] == 0 and row["events_total"] == 0


def test_ladder_uclock_acquire_counters(ladder_trace):
    e = create_engine("uclock", ladder_trace)
    e.run(ladder_trace)
    m = e.metrics
    assert m.acquires_total == 8
    assert m.acquires_skipped == 6  # four never-released locks plus e12, e14
    assert m.acquires_skipped >= 2
    assert m.releases_total == 4
    assert m.events_total == 18 and m.accesses_total == 6 and m.accesses_sampled == 3


def test_json_field_order_and_labels(ladder_trace):
    e = create_engine("sampling", ladder_trace)
    e.run(ladder_trace)
    text = emit(e.metrics, labels={"engine": "sampling", "rate": 0.03})
    row = json.loads(text)
    keys = list(row.keys())
    assert keys[:2] == ["engine", "rate"]
    assert keys[-2:] == ["skip_ratio", "saving_ratio"]
    assert "events_total" in row and row["events_total"] == 18


def test_csv_has_header_row(ladder_trace):
    e = create_engine("orderedlist", ladder_trace)
    e.run(ladder_trace)
    text = emit_csv_rows([e.metrics.as_dict({"engine": "orderedlist"})])
    header, row = text.strip().split("\n")
    assert header.startswith("engine,events_total,")
    assert row.startswith("orderedlist,18,")


def test_saving_ratio_trend_is_reported_not_asserted(capsys):
    # The 3%-vs-100% saving-ratio comparison is an empirical trend in the
    # source material; report it for inspection without asserting direction.
    for marked, _ in random_traces(seed=81, count=1)[:1]:
        pass
    base = marked
    lo = apply_sampling(base, SamplingPolicy.bernoulli(0.03, 7))
    hi = apply_sampling(base, SamplingPolicy.bernoulli(1.0, 7))
    ratios = {}
    for name, tr in (("3%", lo), ("100%", hi)):
        e = create_engine("orderedlist", tr)
        e.run(tr)
        assert 0.0 <= e.metrics.saving_ratio <= 1.0
        ratios[name] = e.metrics.saving_ratio
    print(f"saving_ratio at 3% = {ratios['3%']:.3f}, at 100% = {ratios['100%']:.3f}")


def test_nodes_plus_copy_work_is_deterministic():
    for marked, _ in random_traces(seed=82, count=10):
        runs = []
        for _ in range(2):
            e = create_engine("orderedlist", marked)
            e.run(marked)
            runs.append(e.metrics.nodes_visited + e.metrics.num_threads * e.metrics.deep_copies)
        assert runs[0] == runs[1]
