#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 [--workload sync-heavy ...] [--out FILE]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound from ``BENCHMARK.json``.  With
``--out`` it also writes every run's result line plus that summary as JSON.
Runs go one at a time; any run that fails or prints ``"correct": false``
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs, specs):
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        med = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[spec["name"]] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": spec.get("bound"),
            "unit": spec["unit"],
        }
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write runs and summary to this JSON file")
    args = parser.parse_args(argv)
    specs = bench["per_layer" if args.trace else "end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    record, ok = {}, True
    for name in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [*bench["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", flush=True)
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            runs.append({"seed": seed, "result": result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        if not runs:
            continue
        summary = summarize([r["result"] for r in runs], specs)
        record[name] = {"runs": runs, "summary": summary}
        for metric, s in summary.items():
            bound = "" if s["bound"] is None else f"  bound {s['bound']:.2f}"
            print(f"  {metric:36s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}{bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
