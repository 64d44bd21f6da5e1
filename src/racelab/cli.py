"""Command-line entry point: argument handling for the racelab subcommands.

Subcommands:

* ``gen``      write a synthetic trace file
* ``analyze``  run one engine over a trace; exit 0 = no race, 1 = races, 2 = error.
               The race list is written a block of events at a time
               (``Engine.stream``), so its memory does not grow with the
               number of races
* ``diff``     run the four engines plus the oracle on identical marks and
               report the first divergence, or EQUIVALENT; the comparison is
               ``racelab.differential.diff_report``
* ``bench``    one CSV row of counters per (engine, trace file, rate, seed)

Bad input, an unreadable file and running out of memory exit 2 with one
``error:`` line, even where an output file was already written, or a race
file partly written: exit 1 is a result (races found, or DIVERGENT).  Any
other exception is an internal error: its traceback, then one ``error:
internal error:`` line, and exit 2.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import List, Optional

from .history import EXTENDED, SAMPLED_ONLY, render_reports
from .trace import (
    ACQ,
    REL,
    SamplingPolicy,
    Trace,
    TraceError,
    apply_sampling,
    dump_trace,
    load_trace,
    write_trace,
)

DEFAULT_RATES = (0.003, 0.03, 0.1, 1.0)

# ``racelab.engines.ENGINE_TOKENS``, spelled out so that building the parser
# loads no engine module; a test keeps the two equal.
ENGINE_CHOICES = ("djitp", "sampling", "uclock", "orderedlist")


def __getattr__(name: str):
    # ``diff_report`` is imported on first use, so that only ``diff`` loads
    # the differential stack (``racelab.differential`` and ``racelab.oracle``).
    if name == "diff_report":
        from .differential import diff_report

        return diff_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _open(path: Optional[str]):
    """A text stream to write ``path``, or stdout for ``-``, to use in ``with``."""
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write(path: Optional[str], text: str) -> None:
    with _open(path) as fh:
        fh.write(text)


def _load(args) -> Trace:
    """``--trace`` with Bernoulli marks at ``--rate``, or with its own marks
    when ``--rate`` is omitted."""
    tr = load_trace(args.trace)
    if args.rate is None:
        return tr
    return apply_sampling(tr, SamplingPolicy.bernoulli(args.rate, args.seed))


def cmd_gen(args) -> int:
    from .gen import GenConfig, generate_trace

    cfg = GenConfig(
        threads=args.threads,
        locks=args.locks,
        vars=args.vars,
        events=args.events,
        p_sync=args.p_sync,
        contention=args.contention,
        accesses_per_cs=args.accesses_per_cs,
    )
    tr = generate_trace(cfg, args.seed)
    if args.out is None or args.out == "-":
        write_trace(tr, sys.stdout)
    else:
        dump_trace(tr, args.out)
    accesses = len(tr) - tr.kinds.count(ACQ) - tr.kinds.count(REL)
    print(
        f"generated {len(tr)} events: {tr.num_threads} threads, "
        f"{tr.num_locks} locks, {tr.num_vars} vars, {accesses} accesses",
        file=sys.stderr,
    )
    return 0


def cmd_analyze(args) -> int:
    from . import metrics as metrics_mod
    from .engines import create_engine

    tr = _load(args)
    engine = create_engine(args.engine, tr, mode=args.mode)
    with _open(args.out_races) as out:
        for block in engine.stream(tr):
            out.write(render_reports(block, tr.var_names))
    labels = {
        "engine": args.engine,
        "trace": args.trace,
        "rate": "" if args.rate is None else args.rate,
        "seed": args.seed,
    }
    _write(args.out_metrics, metrics_mod.emit(engine.metrics, labels))
    return 1 if engine.metrics.race_count else 0


def cmd_diff(args) -> int:
    import json

    from .differential import diff_report

    tr = _load(args)
    report = diff_report(tr, args.mode)
    _write(args.out, json.dumps(report, sort_keys=False) + "\n")
    return 0 if report["verdict"] == "EQUIVALENT" else 1


def cmd_bench(args) -> int:
    from . import metrics as metrics_mod
    from .engines import ENGINE_TOKENS, create_engine

    rates = DEFAULT_RATES if args.rates is None else [float(r) for r in args.rates.split(",")]
    rows = []
    for name in args.trace:
        tr = load_trace(name)
        for rate in rates:
            marked = apply_sampling(tr, SamplingPolicy.bernoulli(rate, args.seed))
            for token in ENGINE_TOKENS:
                engine = create_engine(token, marked, mode=args.mode)
                for _ in engine.stream(marked):
                    pass  # the counters are all bench reads
                labels = {"engine": token, "trace": name, "rate": rate, "seed": args.seed}
                rows.append(engine.metrics.as_dict(labels))
    _write(args.out, metrics_mod.emit_csv_rows(rows))
    return 0


def _add_common_analysis_flags(p) -> None:
    p.add_argument("--trace", required=True, help="trace file path")
    p.add_argument("--rate", type=float, default=None,
                   help="Bernoulli sampling rate; omit to keep the file's marks")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--mode", choices=[SAMPLED_ONLY, EXTENDED], default=SAMPLED_ONLY)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="racelab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic trace")
    for flag in ("--threads", "--locks", "--vars", "--events"):
        p_gen.add_argument(flag, type=int, required=True)
    p_gen.add_argument("--p-sync", type=float, default=0.3)
    p_gen.add_argument("--contention", type=float, default=0.0)
    p_gen.add_argument("--accesses-per-cs", type=float, default=2.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", help="run one engine over a trace")
    _add_common_analysis_flags(p_an)
    p_an.add_argument("--engine", choices=list(ENGINE_CHOICES), required=True)
    p_an.add_argument("--out-races", default="-")
    p_an.add_argument("--out-metrics", default="-")
    p_an.set_defaults(func=cmd_analyze)

    p_diff = sub.add_parser("diff", help="differential run of all engines vs oracle")
    _add_common_analysis_flags(p_diff)
    p_diff.add_argument("--out", default="-")
    p_diff.set_defaults(func=cmd_diff)

    p_bench = sub.add_parser("bench", help="counter sweep over engines and rates")
    p_bench.add_argument("--trace", action="append", required=True,
                         help="trace file; repeatable")
    p_bench.add_argument("--rates", default=None,
                         help="comma-separated rates (default 0.003,0.03,0.1,1.0)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--mode", choices=[SAMPLED_ONLY, EXTENDED], default=SAMPLED_ONLY)
    p_bench.add_argument("--out", default="-")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
