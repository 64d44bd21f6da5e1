"""Traced run: the layers of one ``racelab analyze`` timed in this process.

The steps mirror ``racelab.cli.cmd_analyze`` and call only the package's
public functions, so nothing under ``src/`` carries tracing code:

* trace:   ``load_trace`` and ``apply_sampling``, timed.  The parsed
  ``Trace``'s retained size is measured once, untimed, under ``tracemalloc``.
* engines: a plain ``Engine.run`` per engine, then a traced run of a fresh
  engine that times ``Engine.process`` per event, binned by event kind.
  ``engines.trace_overhead_s.E`` is the traced run's wall time minus the
  plain one.
* history: ``AccessHistories.check_and_update`` is wrapped at class level
  during the traced run; ``render_reports`` is timed after the plain run.
* olist:   ``OrderedList.snapshot`` and ``OrderedList.deep_copy`` are
  wrapped the same way during the traced ``orderedlist`` run.

The whole sequence repeats once per pass of the schedule the caller gives;
each metric is the median over passes.  The wrappers are removed again after
every traced run.  See ``README.md`` for the end-to-end metric each number
should move.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

from racelab.engines import ENGINE_TOKENS, create_engine
from racelab.history import AccessHistories, render_reports
from racelab.olist import OrderedList
from racelab.trace import OpKind, SamplingPolicy, apply_sampling, load_trace


def _timed(fn, key, sink):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            sink[key] += clock() - start

    return wrapper


@contextmanager
def wrapped(sink, *targets):
    """Time each ``(cls, method, key)`` into ``sink[key]``; restore on exit."""
    saved = []
    try:
        for cls, name, key in targets:
            saved.append((cls, name, cls.__dict__[name]))
            setattr(cls, name, _timed(cls.__dict__[name], key, sink))
        yield
    finally:
        for cls, name, original in reversed(saved):
            setattr(cls, name, original)


def _traced_process(engine, events, sink):
    """Per-event ``Engine.process`` time by kind; returns the loop's wall time."""
    clock = time.perf_counter
    process = engine.process
    bins = defaultdict(float)
    start = clock()
    for ev in events:
        t = clock()
        process(ev)
        bins[ev.kind] += clock() - t
    total = clock() - start
    sink["acquire"] = bins[OpKind.ACQUIRE]
    sink["release"] = bins[OpKind.RELEASE]
    sink["access"] = bins[OpKind.READ] + bins[OpKind.WRITE]
    return total


def trace_shape(tr) -> dict:
    """What skip ratios and check counts should be read against."""
    samples = tr.sample_size
    sync = sum(1 for e in tr.events if not e.is_access)
    return {
        "threads": tr.num_threads,
        "locks": tr.num_locks,
        "vars": tr.num_vars,
        "sync_share": sync / len(tr),
        "samples": samples,
        "check_budget": samples + 2 * samples * tr.num_threads,
    }


def retained_bytes(path) -> int:
    """Bytes still allocated by ``load_trace`` while its ``Trace`` lives."""
    tracemalloc.start()
    try:
        tr = load_trace(path)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del tr
    return retained


def _engine_pass(token, marked, mode, budget):
    """Plain run, render and traced run of one engine; returns (values, rendered, ok)."""
    engine = create_engine(token, marked, mode=mode)
    start = time.perf_counter()
    reports = engine.run(marked)
    run_s = time.perf_counter() - start
    start = time.perf_counter()
    rendered = render_reports(reports, marked.var_names)
    render_s = time.perf_counter() - start

    sink = defaultdict(float)
    traced = create_engine(token, marked, mode=mode)
    with wrapped(
        sink,
        (AccessHistories, "check_and_update", "check"),
        (OrderedList, "snapshot", "snapshot"),
        (OrderedList, "deep_copy", "deep_copy"),
    ):
        traced_s = _traced_process(traced, marked.events, sink)

    m = engine.metrics
    checks = engine.histories.race_checks
    values = {
        f"engines.run_s.{token}": run_s,
        f"engines.events_per_s.{token}": len(marked) / run_s,
        f"engines.acquire_s.{token}": sink["acquire"],
        f"engines.release_s.{token}": sink["release"],
        f"engines.access_s.{token}": sink["access"],
        f"engines.trace_overhead_s.{token}": traced_s - run_s,
        f"engines.skip_ratio.{token}": m.skip_ratio,
        f"engines.releases_copied.{token}": m.releases_copied,
        f"engines.full_traversals.{token}": m.full_traversals,
        f"history.check_s.{token}": sink["check"],
        f"history.checks.{token}": checks,
        f"history.budget_use.{token}": checks / budget if budget else 0.0,
        f"history.render_s.{token}": render_s,
        f"history.races.{token}": m.race_count,
    }
    if token == "orderedlist":
        values.update({
            "olist.deep_copies": m.deep_copies,
            "olist.shallow_copies": m.shallow_copies,
            "olist.nodes_visited": m.nodes_visited,
            "olist.entries_saved": m.entries_saved,
            "olist.saving_ratio": m.saving_ratio,
            "olist.deep_copy_s": sink["deep_copy"],
            "olist.snapshot_s": sink["snapshot"],
        })
    return values, rendered, traced.reports == reports


def traced_run(path, wl, seed: int, schedule):
    """Return ``(metrics, attempted, failed)``; one layer pass per ``schedule`` item.

    An engine's analysis fails if its traced run reports other races than
    its plain run, or if its race list differs from the sampling engines'
    (``djitp`` only where ``wl.djitp_matches``).
    """
    policy = SamplingPolicy.bernoulli(wl.rate, seed)
    family = ["sampling", "uclock", "orderedlist"] + (["djitp"] if wl.djitp_matches else [])
    samples = defaultdict(list)
    attempted = failed = 0
    for _ in schedule:
        start = time.perf_counter()
        tr = load_trace(path)
        parse_s = time.perf_counter() - start
        start = time.perf_counter()
        marked = apply_sampling(tr, policy)
        sample_s = time.perf_counter() - start
        values = {
            "trace.parse_s": parse_s,
            "trace.parse_events_per_s": len(tr) / parse_s,
            "trace.sample_s": sample_s,
        }
        shape = trace_shape(marked)
        rendered, consistent = {}, {}
        for token in ENGINE_TOKENS:
            engine_values, rendered[token], consistent[token] = _engine_pass(
                token, marked, wl.mode, shape["check_budget"]
            )
            values.update(engine_values)
        expected = Counter(rendered[t] for t in family).most_common(1)[0][0]
        bad = {t for t in ENGINE_TOKENS if not consistent[t]}
        bad |= {t for t in family if rendered[t] != expected}
        attempted += len(ENGINE_TOKENS)
        failed += len(bad)
        for key, value in values.items():
            samples[key].append(value)
    print("shape:", json.dumps(shape))
    # Timings vary between passes; counts are exact and the same in each.
    metrics = {k: median(v) if isinstance(v[0], float) else v[-1] for k, v in samples.items()}
    metrics["trace.bytes_per_event"] = retained_bytes(path) / len(marked)
    return metrics, attempted, failed
