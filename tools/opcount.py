"""Count the bytecode instructions each engine executes on one trace.

    python tools/opcount.py TRACE [--rate R] [--seed S] [--mode M]

Loads ``TRACE``, marks it as ``racelab analyze`` would (``--rate`` and
``--seed``; without ``--rate`` the file's own marks), then, for each engine,
builds it and counts the opcodes executed inside ``Engine.run`` with
``sys.settrace`` and ``f_trace_opcodes``, per Python function.  Parsing,
sampling and the engine's construction are not counted.  Work done in C (a
list copy or an ``any`` over a ``map`` counts as the one call instruction)
is counted apart, as the list elements the run copies or scans there:

* ``release_copies``: T per clock row copied at a release, two rows per
  copied uclock release;
* ``deep_copies``: the three slices of each orderedlist deep copy
  (``times``, ``_next`` and ``_prev``, 3T + 2);
* ``write_scans``: T per checked write, the length of its read-epoch scan
  ``any(map(gt, cr, row))``; the checked writes are counted in a second,
  untraced run.

Prints one JSON object with the opcode total, the C-level elements and the
per-function opcode counts for every engine.  The counts depend only on
the code and the input, so two runs print the same bytes; the racelab
imported is the one in this checkout's ``src``.
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
from racelab.history import EXTENDED, SAMPLED_ONLY, AccessHistories
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


def checked_writes(token: str, tr, mode: str) -> int:
    """The writes a fresh ``token`` engine checks against the histories in
    ``run(tr)``, counted by wrapping ``AccessHistories.check_and_update``."""
    check = AccessHistories.check_and_update
    writes = 0

    def counted(self, index, thread, var, is_write, *rest):
        nonlocal writes
        writes += is_write
        check(self, index, thread, var, is_write, *rest)

    AccessHistories.check_and_update = counted
    try:
        create_engine(token, tr, mode=mode).run(tr)
    finally:
        AccessHistories.check_and_update = check
    return writes


def c_elements(token: str, engine, writes: int) -> dict:
    """The list elements ``engine``'s run copied or scanned in C, by kind
    (module docstring), and their total."""
    width, m = engine.num_threads, engine.metrics
    rows = 2 if token == "uclock" else 1
    out = {
        "release_copies": width * rows * m.releases_copied,
        "deep_copies": (3 * width + 2) * m.deep_copies,
        "write_scans": width * writes,
    }
    return {"total": sum(out.values()), **out}


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
        engines[token] = {
            "total": sum(functions.values()),
            "c_elements": c_elements(token, engine, checked_writes(token, tr, args.mode)),
            "functions": functions,
        }
    result = {"rate": args.rate, "seed": args.seed, "mode": args.mode, "engines": engines}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
