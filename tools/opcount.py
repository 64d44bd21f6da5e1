"""Count the bytecode instructions each engine executes on one trace.

    python tools/opcount.py TRACE [--rate R] [--seed S] [--mode M]

Loads ``TRACE``, marks it as ``racelab analyze`` would (``--rate`` and
``--seed``; without ``--rate`` the file's own marks), then, for each engine,
builds it and counts the opcodes executed inside ``Engine.run`` with
``sys.settrace`` and ``f_trace_opcodes``, per Python function.  Parsing,
sampling and the engine's construction are not counted, nor is work done in
C (a list copy or a ``max`` counts as the one call instruction).  Prints
one JSON object with the total and per-function counts for every engine.
The counts depend only on the code and the input, so two runs print the
same bytes; the racelab imported is the one in this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

if __name__ == "__main__":
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src")]

from racelab.engines import ENGINE_TOKENS, create_engine
from racelab.history import EXTENDED, SAMPLED_ONLY
from racelab.trace import SamplingPolicy, apply_sampling, load_trace


def count_opcodes(fn, *args) -> dict:
    """``{module.qualname: opcodes executed}`` over every Python frame
    that runs during ``fn(*args)``."""
    counts = defaultdict(int)
    names = {}

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code not in names:
            qualname = getattr(code, "co_qualname", code.co_name)  # 3.10 has no co_qualname
            names[code] = f"{frame.f_globals.get('__name__')}.{qualname}"
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    out = defaultdict(int)
    for code, n in counts.items():
        out[names[code]] += n
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--rate", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=[SAMPLED_ONLY, EXTENDED], default=SAMPLED_ONLY)
    args = parser.parse_args(argv)
    tr = load_trace(args.trace)
    if args.rate is not None:
        tr = apply_sampling(tr, SamplingPolicy.bernoulli(args.rate, args.seed))
    engines = {}
    for token in ENGINE_TOKENS:
        engine = create_engine(token, tr, mode=args.mode)
        functions = count_opcodes(engine.run, tr)
        engines[token] = {"total": sum(functions.values()), "functions": functions}
    result = {"rate": args.rate, "seed": args.seed, "mode": args.mode, "engines": engines}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
