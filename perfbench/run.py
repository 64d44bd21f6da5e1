#!/usr/bin/env python3
"""racelab benchmark: `racelab analyze` per engine on three trace shapes.

Run from the repository root:

    python3 perfbench/run.py --workload sync-heavy --seed 1 --seconds 20 --trace 0

The seed feeds both ``racelab gen --seed`` and ``racelab analyze --seed``.

``--trace 0`` (end to end): closed-loop passes, until ``--seconds`` are
used up and at least three passes are done.  Each pass writes the workload's
trace with ``racelab gen`` (``setup_s`` is the median over passes; every
pass must write the same bytes), then runs ``racelab analyze`` once per
engine as a child process, one at a time, rotating the engine order.
``analyze_s.E`` is the mean wall time of engine E's child over the passes
and ``peak_rss_mb.E`` the median of that child's own peak RSS
(``os.wait4``).

``--trace 1`` (per layer): calls the package's layers in this process, in
passes on the same schedule, see ``layers.py``.  These numbers never feed
the end-to-end ones.

Both modes check correctness: the sampling engines must print byte-identical
race lists (and so must ``djitp`` at rate 1.0, where every access is
sampled), and ``racelab.cli.diff_report`` must find every engine equivalent
to the brute-force oracle on a prefix of the trace.  Every analysis that
fails counts in ``failed``; the script then exits 1.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``.  Exit code 2 means the benchmark could not run at all
(for example, no racelab sources under ``src/``).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

ENGINES = ("djitp", "sampling", "uclock", "orderedlist")
SAMPLING_FAMILY = ("sampling", "uclock", "orderedlist")

MIN_PASSES = 3
PREFIX_LINES = 6000  # oracle closure is O(n^2); ~1 s at T = 64
DEADLINE_S = 170.0  # whole run, set-up included
PASS_BUDGET_S = 110.0  # no new pass once it would end after this


@dataclass(frozen=True)
class Workload:
    gen: Tuple[str, ...]  # racelab gen flags, seed excluded
    rate: float
    mode: str

    @property
    def djitp_matches(self) -> bool:
        """At rate 1.0 every access is sampled, so djitp must agree too."""
        return self.rate == 1.0


def _gen_flags(threads, locks, vars_, p_sync, per_cs, events=25_000):
    return (
        "--threads", str(threads), "--locks", str(locks), "--vars", str(vars_),
        "--events", str(events), "--p-sync", str(p_sync), "--contention", "0.0",
        "--accesses-per-cs", str(per_cs),
    )


WORKLOADS: Dict[str, Workload] = {
    "sync-heavy": Workload(_gen_flags(64, 64, 256, 0.8, 1.0), 0.03, "sampled-only"),
    "sparse-extended": Workload(_gen_flags(64, 16, 256, 0.3, 2.0), 0.003, "extended"),
    "dense-full": Workload(_gen_flags(8, 8, 64, 0.3, 2.0), 1.0, "sampled-only"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (exit 2, no result line)."""


@dataclass(frozen=True)
class Analysis:
    engine: str
    code: int
    wall_s: float
    rss_mb: float
    digest: str  # sha256 of the race list, "" if none was written
    has_races: bool


class Runner:
    """Starts racelab child processes from this checkout, one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = work / "child.log"

    def run(self, *args: str) -> Tuple[int, float, float]:
        """Run ``racelab <args>``; return exit code, wall seconds, peak RSS in MB."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        argv = [sys.executable, "-m", "racelab", *args]
        with open(self.log, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code not in (0, 1):
            sys.stderr.write(f"racelab {args[0]} exited {code}: {self.log.read_text()[-2000:]}\n")
        return code, wall, usage.ru_maxrss / 1024.0


def import_racelab() -> None:
    """Import the package from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import racelab
    except ImportError as exc:
        raise BenchError(f"cannot import racelab from {SRC}: {exc}") from None
    if Path(racelab.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"racelab imported from {racelab.__file__}, not from {SRC}")


class Setup:
    """Writes the workload's trace; every rewrite must give the same bytes."""

    def __init__(self, runner: Runner, wl: Workload, seed: int, path: Path):
        self.runner = runner
        self.args = ("gen", *wl.gen, "--seed", str(seed), "--out", str(path))
        self.path = path
        self.times: List[float] = []
        self.digest = None

    def run(self) -> None:
        code, wall, _ = self.runner.run(*self.args)
        if code != 0:
            raise BenchError(f"racelab gen exited {code}")
        digest = hashlib.sha256(self.path.read_bytes()).hexdigest()
        if self.digest not in (None, digest):
            raise BenchError("racelab gen wrote different traces for one seed")
        self.digest = digest
        self.times.append(wall)


def prefix_equivalent(wl: Workload, seed: int, path: Path) -> bool:
    """All engines match the oracle on the trace's first PREFIX_LINES events.

    Marks depend only on (seed, event index), so the prefix carries the same
    marks as the full trace.
    """
    from racelab.cli import diff_report
    from racelab.trace import SamplingPolicy, apply_sampling, parse_trace

    with open(path, "rb") as fh:
        head = b"".join(itertools.islice(fh, PREFIX_LINES))
    tr = apply_sampling(parse_trace(head), SamplingPolicy.bernoulli(wl.rate, seed))
    report = diff_report(tr, wl.mode)
    if report["verdict"] != "EQUIVALENT":
        sys.stderr.write(f"prefix diff: {json.dumps(report)[:2000]}\n")
        return False
    return True


def count_failures(wl: Workload, analyses: List[Analysis]) -> int:
    """Analyses whose exit code or race list is wrong.

    The expected list is the one most analyses of the group printed: the
    sampling engines (plus djitp where it must agree) form one group, djitp
    otherwise forms its own, which only checks it is deterministic.
    """
    family = set(SAMPLING_FAMILY) | ({"djitp"} if wl.djitp_matches else set())
    groups = [
        [a for a in analyses if a.engine in family],
        [a for a in analyses if a.engine not in family],
    ]
    failed = 0
    for group in groups:
        if not group:
            continue
        expected = Counter(a.digest for a in group).most_common(1)[0][0]
        for a in group:
            if a.code != (1 if a.has_races else 0) or a.digest != expected or not a.digest:
                failed += 1
    return failed


def schedule(seconds: float):
    """Yield pass numbers until MIN_PASSES are done and another pass would end
    after ``seconds`` (or after PASS_BUDGET_S, whatever the pass count)."""
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        yield passes
        passes += 1
        now = time.perf_counter()
        next_end = now - start + (now - pass_start)
        if passes >= MIN_PASSES and next_end > seconds or next_end > PASS_BUDGET_S:
            return


def measure(runner: Runner, wl: Workload, seed: int, path: Path, seconds: float):
    """Closed-loop passes; each rewrites the trace, then analyzes it once per engine.

    Returns the set-up record and the analyses.
    """
    races = runner.work / "races.txt"
    common = ("--trace", str(path), "--rate", repr(wl.rate), "--seed", str(seed),
              "--mode", wl.mode, "--out-races", str(races),
              "--out-metrics", str(runner.work / "metrics.json"))
    setup = Setup(runner, wl, seed, path)
    analyses: List[Analysis] = []
    for n in schedule(seconds):
        setup.run()
        for i in range(len(ENGINES)):
            engine = ENGINES[(n + i) % len(ENGINES)]
            races.unlink(missing_ok=True)
            code, wall, rss = runner.run("analyze", "--engine", engine, *common)
            text = races.read_bytes() if races.exists() else None
            digest = hashlib.sha256(text).hexdigest() if text is not None else ""
            analyses.append(Analysis(engine, code, wall, rss, digest, bool(text)))
    return setup, analyses


def end_to_end(runner: Runner, wl: Workload, seed: int, path: Path, seconds: float):
    setup, analyses = measure(runner, wl, seed, path, seconds)
    values = {"setup_s": median(setup.times)}
    for engine in ENGINES:
        mine = [a for a in analyses if a.engine == engine]
        walls = [a.wall_s for a in mine]
        # Repeats of one deterministic analysis vary only with the host's
        # speed, which drifts smoothly over about +-30% with no outliers;
        # for such spread the mean is a steadier estimate than the median.
        values[f"analyze_s.{engine}"] = mean(walls)
        values[f"peak_rss_mb.{engine}"] = median(a.rss_mb for a in mine)
        print(f"{engine}: n={len(walls)} mean {mean(walls):.4f} s, median {median(walls):.4f} s, "
              f"min {min(walls):.4f} s, max {max(walls):.4f} s")
    failed = count_failures(wl, analyses)
    attempted = len(analyses)
    print(f"passes: {len(setup.times)}, fail_ratio: {failed}/{attempted}")
    return values, attempted, failed


def per_layer(runner: Runner, wl: Workload, seed: int, path: Path, seconds: float):
    import layers

    Setup(runner, wl, seed, path).run()
    return layers.traced_run(path, wl, seed, schedule(seconds))


def emit(values: Dict[str, float], specs: List[dict], attempted: int, failed: int) -> dict:
    names = [s["name"] for s in specs]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for s in specs:
        print(f"{s['name']:32s} {values[s['name']]:.6g} {s['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_racelab()
        work.mkdir(parents=True)
        runner = Runner(work, deadline)
        trace_path = work / "workload.trace"
        if args.trace:
            values, attempted, failed = per_layer(
                runner, wl, args.seed, trace_path, args.seconds
            )
            specs = spec["per_layer"]
        else:
            values, attempted, failed = end_to_end(
                runner, wl, args.seed, trace_path, args.seconds
            )
            specs = spec["end_to_end"]
        failed += 0 if prefix_equivalent(wl, args.seed, trace_path) else 1
        result = emit(values, specs, attempted + 1, failed)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
