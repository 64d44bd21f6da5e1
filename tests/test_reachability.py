"""``src/`` keeps only what a command or the benchmark runs.

The commands run in-process through ``racelab.cli.main`` under
``sys.setprofile``: ``gen``; ``analyze`` with the four engines in both
history modes, and with the file's own marks; ``diff`` in both modes, with
``--rate`` and with the file's own marks; ``bench``; a trace with CRLF
endings and comments; a syntax error, a lock-discipline error and an
infeasible ``gen``.  Every function and method that ``ast`` finds under
``src/racelab`` must have been called, apart from ``NOT_RUN``, which gives
the reason each of its names stays.
"""

import ast
import sys
import time
from pathlib import Path

from racelab import ENGINE_TOKENS, cli

SRC = Path(cli.__file__).parent

NOT_RUN = {
    "engines/base.py:Engine.process": "perfbench/layers.py times it per event",
    "engines/base.py:Engine.run": "perfbench/layers.py times it (engines.run_s); the commands stream",
    "trace.py:Trace.events": "perfbench/layers.py feeds these views to Engine.process",
    "trace.py:Event.is_access": "perfbench/layers.py counts sync events with it",
    "olist.py:OrderedList.snapshot": "perfbench/layers.py times it (olist.snapshot_s)",
    "cli.py:__getattr__": "perfbench/run.py imports diff_report from racelab.cli",
    "trace.py:parse_trace": "perfbench/run.py parses its gate's trace prefix with it",
    "trace.py:Trace.__eq__": "the tests compare traces with it",
    "trace.py:Trace.__repr__": "pytest shows a trace by it when an assertion fails",
}


def _functions():
    """``{(file, first line): "path:Qual.name"}`` for every def under ``SRC``;
    the first line is a decorator's, as in the code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{path.relative_to(SRC).as_posix()}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def _clear_caches():
    """Empty every ``functools.cache`` in the package, so a cached function
    runs again rather than being answered by an earlier test's call."""
    for name, module in list(sys.modules.items()):
        if name == "racelab" or name.startswith("racelab."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear") and hasattr(value, "__wrapped__"):
                    value.cache_clear()


def _commands(tmp: Path):
    """``(argv, expected exit code)`` for every run."""
    trace, marked, crlf = str(tmp / "t.trace"), str(tmp / "marked.trace"), str(tmp / "crlf.trace")
    out = str(tmp / "out")
    yield ["gen", "--threads", "4", "--locks", "3", "--vars", "5", "--events", "300",
           "--seed", "1", "--out", trace], 0
    yield ["gen", "--threads", "2", "--locks", "1", "--vars", "1", "--events", "3",
           "--p-sync", "1.0", "--out", out], 2
    lines = Path(trace).read_text().splitlines()
    Path(marked).write_text("".join(
        f"{line}|*\n" if ("|r(" in line or "|w(" in line) and i % 3 == 0 else f"{line}\n"
        for i, line in enumerate(lines)
    ))
    Path(crlf).write_bytes(b"".join(
        (b"# note\r\n" if i % 50 == 0 else b"") + line.encode() + b"\r\n"
        for i, line in enumerate(lines)
    ))
    for engine in ENGINE_TOKENS:
        for mode in ("sampled-only", "extended"):
            yield ["analyze", "--trace", trace, "--engine", engine, "--rate", "0.2",
                   "--mode", mode, "--out-races", out, "--out-metrics", out], None
        yield ["analyze", "--trace", marked, "--engine", engine,
               "--out-races", out, "--out-metrics", out], None
    yield ["analyze", "--trace", crlf, "--engine", "sampling", "--rate", "1.0",
           "--out-races", out, "--out-metrics", out], None
    for mode in ("sampled-only", "extended"):
        yield ["diff", "--trace", trace, "--rate", "0.2", "--seed", "1", "--mode", mode,
               "--out", out], 0
        yield ["diff", "--trace", marked, "--mode", mode, "--out", out], 0
    yield ["bench", "--trace", trace, "--rates", "0.1,1.0", "--out", out], 0
    Path(tmp / "syntax.trace").write_text("T1|w(x)\ngarbage\n")
    yield ["analyze", "--trace", str(tmp / "syntax.trace"), "--engine", "sampling"], 2
    Path(tmp / "discipline.trace").write_text("T1|acq(l)\nT2|rel(l)\n")
    yield ["analyze", "--trace", str(tmp / "discipline.trace"), "--engine", "sampling"], 2


def test_every_function_in_src_runs_under_a_command(tmp_path, capsys):
    functions = _functions()
    assert set(NOT_RUN) <= set(functions.values()), "a NOT_RUN name is gone; drop it"
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    start = time.perf_counter()
    _clear_caches()
    for argv, want in _commands(tmp_path):
        sys.setprofile(profile)
        try:
            rc = cli.main(argv)
        finally:
            sys.setprofile(None)
        assert rc == want if want is not None else rc in (0, 1), (argv, rc)
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    never = sorted(name for key, name in functions.items() if key not in called)
    assert [name for name in never if name not in NOT_RUN] == []
    assert [name for name in NOT_RUN if name not in never] == [], "runs now; drop it"
    assert elapsed <= 5.0
