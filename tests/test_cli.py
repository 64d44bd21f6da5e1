import csv
import io
import json
import sys
from pathlib import Path

import pytest

from conftest import LADDER_TEXT, handoff_trace
from racelab.cli import main
from racelab.trace import dump_trace, parse_trace


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_gen_then_analyze_round_trip(tmp_path, capsys):
    out = str(tmp_path / "t.trace")
    rc = main(["gen", "--threads", "3", "--locks", "2", "--vars", "2",
               "--events", "60", "--seed", "5", "--out", out])
    assert rc == 0
    tr = parse_trace(Path(out).read_bytes())
    assert len(tr) == 60
    rc = main(["analyze", "--trace", out, "--engine", "djitp",
               "--out-races", str(tmp_path / "races.txt"),
               "--out-metrics", str(tmp_path / "m.json")])
    assert rc in (0, 1)
    metrics = json.loads((tmp_path / "m.json").read_text())
    assert metrics["events_total"] == 60


def test_gen_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsys):
    flags = ["gen", "--threads", "5", "--locks", "3", "--vars", "7",
             "--events", "9000", "--seed", "2"]  # more than one 4096-line chunk
    out = tmp_path / "t.trace"
    assert main(flags + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(flags) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_gen_infeasible_config_exits_2(tmp_path, capsys):
    rc = main(["gen", "--threads", "1", "--locks", "1", "--vars", "1",
               "--events", "5", "--p-sync", "1.0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_ladder_premarked_no_race(tmp_path, capsys):
    trace = write(tmp_path, "ladder.trace", LADDER_TEXT)
    races = str(tmp_path / "races.txt")
    rc = main(["analyze", "--trace", trace, "--engine", "sampling",
               "--out-races", races, "--out-metrics", str(tmp_path / "m.json")])
    assert rc == 0
    assert (tmp_path / "races.txt").read_text() == ""


def test_analyze_minimal_race_exit_1(tmp_path):
    trace = write(tmp_path, "two.trace", "T1|w(x)|*\nT2|w(x)|*\n")
    races = str(tmp_path / "races.txt")
    for engine in ("djitp", "sampling", "uclock", "orderedlist"):
        rc = main(["analyze", "--trace", trace, "--engine", engine,
                   "--out-races", races, "--out-metrics", str(tmp_path / "m.json")])
        assert rc == 1
        assert (tmp_path / "races.txt").read_text() == "RACE write-write at e2 on x\n"


def test_unknown_engine_exits_2(tmp_path, capsys):
    trace = write(tmp_path, "t.trace", "T1|w(x)\n")
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--trace", trace, "--engine", "fasttrack"])
    assert err.value.code == 2


def test_corrupt_trace_exits_2(tmp_path, capsys):
    trace = write(tmp_path, "bad.trace", "T1|rel(l)\n")
    assert main(["analyze", "--trace", trace, "--engine", "djitp"]) == 2
    assert main(["diff", "--trace", trace]) == 2
    assert "release-of-free-lock" in capsys.readouterr().err


def test_diff_ladder_premarked_equivalent(tmp_path, capsys):
    trace = write(tmp_path, "ladder.trace", LADDER_TEXT)
    rc = main(["diff", "--trace", trace])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "EQUIVALENT"


def test_diff_full_rate_equivalent_including_baseline(tmp_path, capsys):
    trace = write(tmp_path, "ladder.trace", LADDER_TEXT)
    rc = main(["diff", "--trace", trace, "--rate", "1.0", "--seed", "3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "EQUIVALENT"
    assert [9, "write-write"] in report["races"]


@pytest.mark.parametrize("command", [
    ["analyze", "--engine", "orderedlist"], ["diff"], ["bench", "--rates", "0.1"],
], ids=["analyze", "diff", "bench"])
def test_local_epoch_opt_is_not_an_option(tmp_path, capsys, command):
    # orderedlist has one algorithm, the deferred own-epoch path.
    trace = write(tmp_path, "ladder.trace", LADDER_TEXT)
    with pytest.raises(SystemExit) as err:
        main([*command, "--trace", trace, "--local-epoch-opt", "off"])
    assert err.value.code == 2
    assert "unrecognized arguments: --local-epoch-opt off" in capsys.readouterr().err


def test_diff_checks_a_trace_above_20000_events_whole(tmp_path, capsys):
    # Race-free lock hand-offs between two threads, 20001 events in all.
    section = "T1|acq(l)\nT1|w(x)|*\nT1|rel(l)\n"
    handoff = section + section.replace("T1", "T2").replace("w(x)", "r(x)")
    trace = write(tmp_path, "big.trace", handoff * 3333 + section)
    assert len(parse_trace(Path(trace).read_bytes())) == 20_001
    assert main(["diff", "--trace", trace]) == 0
    assert json.loads(capsys.readouterr().out) == {"verdict": "EQUIVALENT", "races": []}


def test_bench_row_cardinality_and_determinism(tmp_path):
    trace = write(tmp_path, "ladder.trace", LADDER_TEXT)
    # The same events with comment lines between them.
    commented = write(tmp_path, "commented.trace", "# ladder\n" + LADDER_TEXT.replace(
        "T2|acq(l1)\n", "# hand-off\nT2|acq(l1)\n# x is written under l1\n"))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        rc = main(["bench", "--trace", trace, "--trace", commented, "--seed", "9", "--out", out])
        assert rc == 0
        outs.append((tmp_path / name).read_text())
    assert outs[0] == outs[1]
    rows = list(csv.DictReader(io.StringIO(outs[0])))
    # 2 traces x 4 engines x default rates {0.003, 0.03, 0.1, 1.0}
    assert len(rows) == 32
    assert [r["trace"] for r in rows] == [trace] * 16 + [commented] * 16
    assert {r["engine"] for r in rows} == {"djitp", "sampling", "uclock", "orderedlist"}
    counters = [{k: v for k, v in r.items() if k != "trace"} for r in rows]
    assert counters[:16] == counters[16:]
    assert len({(r["engine"], r["rate"]) for r in rows[:16]}) == 16


@pytest.mark.parametrize("args,error", [
    ([], "the following arguments are required: --trace"),
    (["--gen-count", "2"], "unrecognized arguments: --gen-count 2"),
    (["--threads", "3"], "unrecognized arguments: --threads 3"),
], ids=["no-trace", "gen-count", "threads"])
def test_bench_reads_trace_files_only(tmp_path, capsys, args, error):
    # bench generates no trace: a sweep cell is ``gen --out`` then ``bench --trace``.
    trace = write(tmp_path, "ladder.trace", LADDER_TEXT)
    out = tmp_path / "b.csv"
    argv = ["bench", *args, "--out", str(out)]
    if args:
        argv += ["--trace", trace]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_bench_empty_rates_exits_2(tmp_path, capsys):
    # An empty --rates names no rate; it must not fall back to the defaults.
    trace = write(tmp_path, "ladder.trace", LADDER_TEXT)
    out = tmp_path / "b.csv"
    assert main(["bench", "--trace", trace, "--rates", "", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_bench_skip_ratio_monotone_in_rate_on_handoff(tmp_path):
    path = str(tmp_path / "handoff.trace")
    dump_trace(handoff_trace(100), path)
    out = str(tmp_path / "h.csv")
    assert main(["bench", "--trace", path, "--seed", "1", "--out", out]) == 0
    rows = list(csv.DictReader(io.StringIO(Path(out).read_text())))
    for engine in ("uclock", "orderedlist"):
        ratios = [float(r["skip_ratio"]) for r in rows if r["engine"] == engine]
        assert ratios == sorted(ratios, reverse=True)


def test_diff_reports_first_divergence(tmp_path, capsys, monkeypatch):
    # Force a wrong oracle answer to exercise the divergence report path.
    monkeypatch.setattr("racelab.oracle.racy_events", lambda *a, **k: set())
    trace = write(tmp_path, "two.trace", "T1|w(x)|*\nT2|w(x)|*\n")
    rc = main(["diff", "--trace", trace])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "DIVERGENT"
    assert report["field"] == "racy-set"
    assert report["only_engine"] == [[2, "write-write"]]


def test_diff_reports_the_first_timestamp_divergence(tmp_path, capsys, monkeypatch):
    # Folding one past the epoch changes no race on the ladder (clocks only
    # grow), but T2 joins T1's inflated component through l1 at e8.
    from racelab.engines.uclock import UclockEngine

    def fold_one_ahead(self, t):
        self.c_threads[t][t] = self.epochs[t] + 1
        self.u_threads[t][t] += 1

    monkeypatch.setattr(UclockEngine, "_fold", fold_one_ahead)
    trace = write(tmp_path, "ladder.trace", LADDER_TEXT)
    assert main(["diff", "--trace", trace]) == 1
    assert capsys.readouterr().out == (
        '{"verdict": "DIVERGENT", "field": "snapshot", "engine": "uclock", "event_index": 8, '
        '"engine_value": [2, 1], "oracle_value": [1, 1]}\n'
    )


# Python starts and imports racelab within about 20 MB of address space.  At
# T=L=1024 and V=4096, analyze's extended histories alone take about 100 MB,
# and diff's first engine more than 64 MB.
MEMORY_CAP_MB = 64


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps a Linux child")
@pytest.mark.parametrize("args", [
    ["analyze", "--engine", "sampling", "--mode", "extended", "--rate", "0"],
    ["diff", "--rate", "0.1", "--seed", "1"],
], ids=["analyze", "diff"])
def test_out_of_memory_exits_2_with_one_error_line(tmp_path, args):
    import resource
    import subprocess

    from racelab.gen import GenConfig, generate_trace

    trace = str(tmp_path / "wide.trace")
    dump_trace(generate_trace(GenConfig(1024, 1024, 4096, 20_000), 1), trace)

    def cap():
        limit = MEMORY_CAP_MB << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    res = subprocess.run(
        [sys.executable, "-m", "racelab", *args, "--trace", trace],
        capture_output=True, text=True, preexec_fn=cap,
    )
    assert (res.returncode, res.stdout, res.stderr) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("command", [["analyze", "--engine", "sampling"], ["diff"]],
                         ids=["analyze", "diff"])
def test_internal_error_exits_2_not_1(tmp_path, capsys, monkeypatch, command):
    # Exit 1 is a result (races found, or DIVERGENT); a bug in the program is not.
    from racelab.engines.sampling import SamplingEngine

    def broken(self, thread, lock):
        raise RuntimeError("planted")

    monkeypatch.setattr(SamplingEngine, "_publish", broken)
    trace = write(tmp_path, "ladder.trace", LADDER_TEXT)
    assert main([*command, "--trace", trace]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("\nerror: internal error: RuntimeError: planted\n")


def test_cli_module_subprocess_smoke(tmp_path):
    import subprocess
    import sys

    trace = write(tmp_path, "two.trace", "T1|w(x)|*\nT2|w(x)|*\n")
    res = subprocess.run(
        [sys.executable, "-m", "racelab.cli", "analyze", "--trace", trace,
         "--engine", "uclock", "--out-metrics", str(tmp_path / "m.json")],
        capture_output=True, text=True,
    )
    assert res.returncode == 1
    assert "RACE write-write at e2 on x" in res.stdout


def test_analyze_does_not_load_the_differential_stack(tmp_path):
    import subprocess
    import sys

    # Nor anything else it does not run.  Modules a site hook loaded before
    # racelab was imported do not count.
    trace = write(tmp_path, "two.trace", "T1|w(x)|*\nT2|w(x)|*\n")
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from racelab.cli import main\n"
        f"rc = main(['analyze', '--trace', {trace!r}, '--engine', 'sampling',\n"
        f"           '--out-races', {str(tmp_path / 'r.txt')!r},\n"
        f"           '--out-metrics', {str(tmp_path / 'm.json')!r}])\n"
        "assert rc == 1, rc\n"
        "unused = {'racelab.differential', 'racelab.oracle', 'dataclasses', 'csv',\n"
        "          'racelab.gen', 'racelab.olist', 'racelab.engines.uclock',\n"
        "          'racelab.engines.orderedlist', 'racelab.engines.djitp'}\n"
        "loaded = unused & (set(sys.modules) - before)\n"
        "assert not loaded, loaded\n"
        "from racelab.cli import diff_report\n"
        "assert diff_report.__module__ == 'racelab.differential'\n"
        "import racelab\n"
        "assert racelab.GenConfig.__module__ == 'racelab.gen'\n"
        "assert racelab.OrderedList.__module__ == 'racelab.olist'\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_gen_loads_no_engine_json_or_dataclasses(tmp_path):
    import subprocess
    import sys

    # ``gen`` runs the generator and the writer only.  Modules a site hook
    # loaded before racelab was imported do not count.
    out = str(tmp_path / "t.trace")
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from racelab.cli import main\n"
        "rc = main(['gen', '--threads', '4', '--locks', '3', '--vars', '5',\n"
        f"           '--events', '200', '--seed', '1', '--out', {out!r}])\n"
        "assert rc == 0, rc\n"
        "new = set(sys.modules) - before\n"
        "assert 'racelab.gen' in new\n"
        "unused = {'dataclasses', 'inspect', 'json', 'racelab.metrics',\n"
        "          'racelab.differential', 'racelab.oracle', 'racelab.olist'}\n"
        "loaded = (unused & new) | {m for m in new if m.startswith('racelab.engines')}\n"
        "assert not loaded, loaded\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert len(parse_trace(Path(out).read_bytes())) == 200


def test_engine_choices_are_the_engine_tokens():
    from racelab import cli
    from racelab.engines import ENGINE_TOKENS

    assert cli.ENGINE_CHOICES == ENGINE_TOKENS


def _budget_trace(tmp_path):
    out = str(tmp_path / "b.trace")
    assert main(["gen", "--threads", "6", "--locks", "3", "--vars", "5",
                 "--events", "2000", "--seed", "3", "--out", out]) == 0
    return out


def test_analyze_metrics_report_race_checks_within_budget(tmp_path):
    trace = _budget_trace(tmp_path)
    threads = parse_trace(Path(trace).read_bytes()).num_threads
    out = tmp_path / "m.json"
    for mode in ("sampled-only", "extended"):
        for engine in ("sampling", "uclock", "orderedlist"):
            rc = main(["analyze", "--trace", trace, "--engine", engine, "--rate", "0.02",
                       "--seed", "4", "--mode", mode,
                       "--out-races", str(tmp_path / "r.txt"), "--out-metrics", str(out)])
            assert rc in (0, 1)
            row = json.loads(out.read_text())
            checks, s = int(row["race_checks"]), int(row["accesses_sampled"])
            assert s > 0
            if mode == "sampled-only":
                assert checks == s
            else:
                assert s <= checks <= s + 2 * s * threads


def test_gen_and_analyze_build_no_event_views(tmp_path, monkeypatch):
    # No command enters the per-event layer: no ``Event`` view is built and
    # ``Engine.process`` is never called.
    import racelab.trace as trace_mod
    from racelab.engines import Engine

    def no_views(*args, **kwargs):
        raise AssertionError("an Event view was built")

    def no_process(*args, **kwargs):
        raise AssertionError("Engine.process was called")

    monkeypatch.setattr(trace_mod, "Event", no_views)
    monkeypatch.setattr(Engine, "process", no_process)
    out = str(tmp_path / "t.trace")
    assert main(["gen", "--threads", "4", "--locks", "2", "--vars", "3",
                 "--events", "300", "--seed", "2", "--out", out]) == 0
    for engine in ("djitp", "sampling", "uclock", "orderedlist"):
        rc = main(["analyze", "--trace", out, "--engine", engine, "--rate", "0.1",
                   "--mode", "extended", "--out-races", str(tmp_path / "r.txt"),
                   "--out-metrics", str(tmp_path / "m.json")])
        assert rc in (0, 1)
    assert main(["bench", "--trace", out, "--rates", "0.1,1.0", "--seed", "1",
                 "--out", str(tmp_path / "b.csv")]) == 0
    for mode in ("sampled-only", "extended"):
        assert main(["diff", "--trace", out, "--rate", "0.1", "--seed", "1", "--mode", mode,
                     "--out", str(tmp_path / "d.json")]) == 0
