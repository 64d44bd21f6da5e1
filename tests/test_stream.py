"""``analyze``, ``diff`` and ``bench`` walk a trace a block of events at a time.

``Engine.stream`` yields each block's reports and the engine drops them
when the next block starts.  ``analyze`` writes each block's race lines as
the block ends, so the race file, the metrics and the exit code must equal
those of a whole run (``Engine.run``), block boundaries included, and the
command's memory must grow with the trace's columns only, not with its
races.
"""

import json
import tracemalloc

import pytest

from conftest import trace_text
from racelab import metrics
from racelab.cli import main
from racelab.engines import ENGINE_TOKENS, create_engine
from racelab.engines.base import BLOCK
from racelab.gen import GenConfig, generate_trace
from racelab.history import render_reports
from racelab.trace import SamplingPolicy, apply_sampling, load_trace

MODES = ("sampled-only", "extended")


def _trace(tmp_path, name, events, threads=8, locks=4, vars_=16, seed=2):
    path = tmp_path / name
    text = trace_text(generate_trace(GenConfig(threads, locks, vars_, events), seed))
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def block_traces(tmp_path_factory):
    """A racy trace of three blocks and a bit, and one of exactly two blocks."""
    tmp = tmp_path_factory.mktemp("blocks")
    return [_trace(tmp, "three.trace", 3 * BLOCK + 500), _trace(tmp, "exact.trace", 2 * BLOCK, seed=5)]


def _whole(path, token, mode, rate):
    """Race text, metrics line and exit code of one whole ``Engine.run``."""
    marked = apply_sampling(load_trace(path), SamplingPolicy.bernoulli(rate, 1))
    engine = create_engine(token, marked, mode=mode)
    reports = engine.run(marked)
    labels = {"engine": token, "trace": path, "rate": rate, "seed": 1}
    return render_reports(reports, marked.var_names), metrics.emit(engine.metrics, labels), int(bool(reports))


@pytest.mark.parametrize("rate", [0.3, 1.0])
def test_streamed_analyze_equals_the_whole_run_across_block_boundaries(tmp_path, block_traces, rate):
    races, out = tmp_path / "r.txt", tmp_path / "m.json"
    for path in block_traces:
        assert len(load_trace(path)) >= 2 * BLOCK
        for token in ENGINE_TOKENS:
            for mode in MODES:
                text, line, code = _whole(path, token, mode, rate)
                rc = main(["analyze", "--trace", path, "--engine", token, "--rate", str(rate),
                           "--seed", "1", "--mode", mode,
                           "--out-races", str(races), "--out-metrics", str(out)])
                assert (races.read_text(), out.read_text(), rc) == (text, line, code), (path, token, mode)
    # Races are found in every block of both traces, so every boundary is crossed.
    for path in block_traces:
        text, _, _ = _whole(path, "djitp", "sampled-only", 1.0)
        blocks = {(int(row.split(" at e")[1].split()[0]) - 1) // BLOCK for row in text.splitlines()}
        assert blocks >= set(range(len(load_trace(path)) // BLOCK))


def test_streamed_stdout_holds_the_races_first_and_the_metrics_line_last(block_traces, capsys):
    path = block_traces[0]
    text, line, code = _whole(path, "orderedlist", "extended", 1.0)
    rc = main(["analyze", "--trace", path, "--engine", "orderedlist", "--rate", "1.0",
               "--seed", "1", "--mode", "extended", "--out-races", "-", "--out-metrics", "-"])
    out, err = capsys.readouterr()
    assert (out, err, rc) == (text + line, "", code)
    assert text.count("\n") > BLOCK // 4


def test_race_count_counts_the_races_written_and_dropped(tmp_path, block_traces):
    path, races, out = block_traces[0], tmp_path / "r.txt", tmp_path / "m.json"
    assert len(load_trace(path)) >= 3 * BLOCK
    rc = main(["analyze", "--trace", path, "--engine", "djitp", "--rate", "1.0",
               "--out-races", str(races), "--out-metrics", str(out)])
    lines = races.read_text().count("\n")
    assert rc == 1 and lines > BLOCK
    assert json.loads(out.read_text())["race_count"] == lines


def test_unwritable_race_file_exits_2_without_metrics(tmp_path, block_traces, capsys):
    out = tmp_path / "m.json"
    rc = main(["analyze", "--trace", block_traces[0], "--engine", "djitp", "--rate", "1.0",
               "--out-races", str(tmp_path / "missing" / "r.txt"), "--out-metrics", str(out)])
    stdout, err = capsys.readouterr()
    assert (rc, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_the_engine_holds_one_block_of_reports_at_a_time(block_traces):
    marked = apply_sampling(load_trace(block_traces[0]), SamplingPolicy.bernoulli(1.0, 1))
    whole = create_engine("djitp", marked).run(marked)
    engine = create_engine("djitp", marked)
    blocks = []
    for block in engine.stream(marked):
        assert block is engine.reports
        blocks.append(list(block))
    assert engine.reports == [] and len(blocks) == 4
    assert [r for block in blocks for r in block] == whole
    for n, block in enumerate(blocks):
        assert all(n * BLOCK < index <= (n + 1) * BLOCK for index, _, _ in block)
    assert engine.metrics.race_count == len(whole)


def test_analyze_memory_grows_with_the_trace_not_with_its_races(tmp_path):
    # dense-full's shape at rate 1.0 reports about one race per two events.
    # Kept whole, the reports and their render cost about 110 B per event;
    # streamed, only the trace's columns (about 10 B per event) grow.
    small, large = 10_000, 40_000
    paths = {n: _trace(tmp_path, f"{n}.trace", n, locks=8, vars_=64, seed=1) for n in (small, large)}
    argv = ["analyze", "--engine", "djitp", "--rate", "1.0",
            "--out-races", str(tmp_path / "r.txt"), "--out-metrics", str(tmp_path / "m.json")]
    assert main(argv + ["--trace", paths[small]]) == 1  # imports are not the trace's
    peaks = {}
    for n, path in paths.items():
        tracemalloc.start()
        try:
            assert main(argv + ["--trace", path]) == 1
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "r.txt").read_text().count("\n") > large // 4
    assert (peaks[large] - peaks[small]) / (large - small) < 40
