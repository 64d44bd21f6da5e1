"""Acceptance criteria, one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The generated suites are deterministic; the whole module takes
about half a minute.  Criteria 1, 3 and 9 compare engines with the oracle
through ``racelab.differential``, the comparison ``racelab diff`` uses;
criterion 3 also checks the oracle's timestamps against the closure tables.
"""

from __future__ import annotations

import random
import statistics

import numpy as np
import pytest

import closure_oracle as closure
from conftest import (
    empty_trace,
    handoff_trace,
    rows,
    run_prefix,
    skip_decisions,
    tally_deep_copies,
)
from racelab import differential, oracle
from racelab.engines import create_engine, observe
from racelab.gen import GenConfig, generate_trace
from racelab.history import EXTENDED, SAMPLED_ONLY
from racelab.olist import OrderedList
from racelab.trace import SamplingPolicy, apply_sampling

RATES = (0.0, 0.003, 0.03, 0.1, 1.0)
N_SUITE1 = 1000
N_SUITE3 = 200
N_SUITE5 = 100
SAMPLING_FAMILY = ("sampling", "uclock", "orderedlist")


def _config(rng: random.Random, max_events: int) -> GenConfig:
    r = rng.random()
    if r < 0.80:
        n = rng.randint(24, min(240, max_events))
    elif r < 0.95:
        n = rng.randint(min(240, max_events), min(600, max_events))
    else:
        n = rng.randint(min(600, max_events), max_events)
    return GenConfig(
        threads=rng.randint(1, 8),
        locks=rng.randint(1, 8),
        vars=rng.randint(1, 8),
        events=n,
        p_sync=rng.choice([0.1, 0.2, 0.35, 0.5, 0.7]),
        contention=rng.random(),
        accesses_per_cs=rng.choice([0.5, 1.0, 2.0, 4.0]),
    )


def _run_engines(tr, mode: str, tokens) -> dict:
    """Each engine named in ``tokens`` after ``run`` on ``tr``, by token."""
    engines = {token: create_engine(token, tr, mode=mode) for token in tokens}
    for engine in engines.values():
        engine.run(tr)
    return engines


@pytest.fixture(scope="module")
def suite1():
    """One pass over the criterion-1 trace suite, accumulating all evidence."""
    rng = random.Random(20260808)
    data = {
        "c1": [], "c2": [], "c6": [], "c7": [], "c9": [],
        "skip_ratio_3pct": {"uclock": [], "orderedlist": []},
        "traces": 0, "rate_runs": 0,
    }
    for i in range(N_SUITE1):
        tr = generate_trace(_config(rng, 1000), 9_000_000 + i)
        data["traces"] += 1
        for rate in RATES:
            marked = apply_sampling(tr, SamplingPolicy.bernoulli(rate, 77_000 + i))
            data["rate_runs"] += 1
            s, t, l = marked.sample_size, marked.num_threads, marked.num_locks
            runs = {token: create_engine(token, marked) for token in SAMPLING_FAMILY}
            copies = tally_deep_copies(runs["orderedlist"], marked)
            for engine in runs.values():
                engine.run(marked)
            sampling, uclock, olist = runs["sampling"], runs["uclock"], runs["orderedlist"]

            # criterion 1: engine equivalence against the oracle
            racy_sets = {label: e.racy_set() for label, e in runs.items()}
            report = differential.racy_divergence(marked, SAMPLED_ONLY, racy_sets)
            if report:
                data["c1"].append(f"trace {i} rate {rate}: {report}")

            # criterion 2: full-rate agreement with the baseline detector
            if rate == 1.0:
                djitp = create_engine("djitp", marked)
                djitp.run(marked)
                if djitp.racy_set() != sampling.racy_set():
                    data["c2"].append(f"trace {i}: djitp != sampling at rate 1.0")

            # criterion 6: complexity counters
            m = olist.metrics
            if m.deep_copies > s * t + t:
                data["c6"].append(f"trace {i} rate {rate}: deep copies {m.deep_copies}")
            if sum(copies) != m.deep_copies:
                data["c6"].append(f"trace {i} rate {rate}: deep copy tally {sum(copies)}")
            if max(copies, default=0) > s + 1:
                data["c6"].append(f"trace {i} rate {rate}: per-thread deep copies")
            if m.nodes_visited > s * t * t:
                data["c6"].append(f"trace {i} rate {rate}: nodes {m.nodes_visited}")
            if uclock.metrics.full_traversals > 4 * s * t * (t + l):
                data["c6"].append(
                    f"trace {i} rate {rate}: traversals {uclock.metrics.full_traversals}"
                )
            if sampling.metrics.epoch_increments > s:
                data["c6"].append(f"trace {i} rate {rate}: epoch increments")

            # criterion 7: instance optimality against the clock-work scalar
            vtwork = closure.clock_work(marked)
            if m.deep_copies * t + m.nodes_visited > 8 * (vtwork * t + t):
                data["c7"].append(
                    f"trace {i} rate {rate}: "
                    f"{m.deep_copies}*{t}+{m.nodes_visited} vs 8*({vtwork}*{t}+{t})"
                )

            # criterion 9: extended mode equals its oracle within the budget
            runs = _run_engines(marked, EXTENDED, ("sampling", "orderedlist"))
            racy_sets = {label: e.racy_set() for label, e in runs.items()}
            report = differential.racy_divergence(marked, EXTENDED, racy_sets)
            if report:
                data["c9"].append(f"trace {i} rate {rate}: {report}")
            for label, engine in runs.items():
                checks = engine.histories.race_checks
                if checks > s + 2 * s * t:
                    data["c9"].append(f"trace {i} rate {rate} {label}: {checks} checks")

            if rate == 0.03:
                data["skip_ratio_3pct"]["uclock"].append(uclock.metrics.skip_ratio)
                data["skip_ratio_3pct"]["orderedlist"].append(olist.metrics.skip_ratio)
    return data


@pytest.fixture(scope="module")
def suite3():
    """Timestamp-fidelity and freshness evidence on 200 traces, n <= 500."""
    rng = random.Random(424242)
    fidelity, freshness = [], []
    for i in range(N_SUITE3):
        tr = generate_trace(_config(rng, 500), 5_500_000 + i)
        rate = (0.0, 0.03, 0.2, 1.0)[i % 4]
        marked = apply_sampling(tr, SamplingPolicy.bernoulli(rate, i))
        tables = closure.declarative_timestamps(marked)

        # Every engine's per-event timestamps equal the oracle's, and
        # those equal the defining tables.
        report = differential.diff_report(marked, SAMPLED_ONLY)
        if report["verdict"] != "EQUIVALENT":
            fidelity.append(f"trace {i}: {report}")
        if list(oracle.timestamps(marked, full=True)) != tables.ct_ft:
            fidelity.append(f"trace {i}: oracle causal timestamps differ from the tables")
        effective = [tables.ct_smp_effective(index, t) for index, t, *_ in rows(marked)]
        if list(oracle.timestamps(marked)) != effective:
            fidelity.append(f"trace {i}: oracle sampling timestamps differ from the tables")

        uc = create_engine("uclock", marked)
        seen = []  # the acting thread's freshness clock after each event
        observe(uc, lambda index, eff: seen.append(list(uc.u_threads[marked.threads[index - 1]])))
        uc.run(marked)
        assert len(seen) == len(marked)
        for pos, (ut, thread) in enumerate(zip(seen, marked.threads)):
            if ut[thread] != tables.vt_replay[pos]:
                freshness.append(f"trace {i} event {pos + 1}: self component")
                break
            if any(a > b for a, b in zip(ut, tables.u_replay[pos])):
                freshness.append(f"trace {i} event {pos + 1}: not below oracle freshness")
                break
    return {"fidelity": fidelity, "freshness": freshness}


def test_criterion_1_engine_equivalence(suite1):
    assert not suite1["c1"], "\n".join(suite1["c1"][:10])
    assert suite1["traces"] >= 1000 and suite1["rate_runs"] >= 5000
    print(f"\nCRITERION 1 (engine equivalence, {suite1['rate_runs']} runs): PASS")


def test_criterion_2_djitp_agreement_at_full_rate(suite1):
    assert not suite1["c2"], "\n".join(suite1["c2"][:10])
    print("CRITERION 2 (full-rate agreement with baseline detector): PASS")


def test_criterion_3_timestamp_fidelity(suite3):
    assert not suite3["fidelity"], "\n".join(suite3["fidelity"][:10])
    print(f"CRITERION 3 (timestamp fidelity, {N_SUITE3} traces): PASS")


def test_criterion_4_freshness_soundness(suite3):
    assert not suite3["freshness"], "\n".join(suite3["freshness"][:10])
    print(f"CRITERION 4 (freshness soundness, {N_SUITE3} traces): PASS")


def test_criterion_5_timestamp_ordering_properties():
    rng = random.Random(1234321)
    for i in range(N_SUITE5):
        tr = generate_trace(_config(rng, 300), 3_300_000 + i)
        rate = (0.03, 0.2, 1.0)[i % 3]
        marked = apply_sampling(tr, SamplingPolicy.bernoulli(rate, i))
        tb = closure.declarative_timestamps(marked)
        hb = closure.hb_closure(marked)
        n, t_count = len(marked), marked.num_threads
        threads = np.array(marked.threads)
        in_s = np.array(list(marked.marks), dtype=bool)
        ctft = np.array(tb.ct_ft)
        ctsm = np.array(tb.ct_smp)
        u = np.array(tb.u)
        hbm = np.zeros((n, n), dtype=bool)
        for j in range(n):
            bits = hb.preds[j]
            raw = np.frombuffer(
                bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8
            )
            hbm[:, j] = np.unpackbits(raw, bitorder="little")[:n]
        for a in range(n):
            ta = threads[a]
            other = threads != ta
            # Proposition: three-way equivalence for the causal timestamp
            scalar = ctft[a, ta] <= ctft[:, ta]
            full = (ctft[a] <= ctft).all(axis=1)
            assert not (other & ((scalar != full) | (full != hbm[a]))).any(), (
                f"causal-timestamp equivalence fails: trace {i} event {a + 1}"
            )
            # Proposition: same equivalence for sampled events
            if in_s[a]:
                scalar = ctsm[a, ta] <= ctsm[:, ta]
                full = (ctsm[a] <= ctsm).all(axis=1)
                assert not (other & ((scalar != full) | (full != hbm[a]))).any(), (
                    f"sampling-timestamp equivalence fails: trace {i} event {a + 1}"
                )
            # Propositions: freshness comparisons bound clock divergence
            k = u[a, ta] - u[:, ta]
            exceed = (ctsm[a][None, :] > ctsm).sum(axis=1)
            assert not (other & (k <= 0) & (exceed > 0)).any(), (
                f"freshness order fails: trace {i} event {a + 1}"
            )
            assert not (
                other & (exceed > np.minimum(t_count, np.maximum(k, 0)))
            ).any(), f"freshness gap bound fails: trace {i} event {a + 1}"
    print(f"CRITERION 5 (timestamp ordering properties, {N_SUITE5} traces, all pairs): PASS")


def test_criterion_6_complexity_counters(suite1):
    assert not suite1["c6"], "\n".join(suite1["c6"][:10])
    print("CRITERION 6 (complexity counter bounds): PASS")


def test_criterion_7_instance_optimality(suite1):
    assert not suite1["c7"], "\n".join(suite1["c7"][:10])
    print("CRITERION 7 (instance optimality vs clock-work scalar): PASS")


def test_criterion_8_skip_behavior(suite1):
    tr = handoff_trace(100)
    for token in ("uclock", "orderedlist"):
        e = create_engine(token, tr)
        e.run(tr)
        assert e.metrics.skip_ratio >= 0.95, f"{token} skipped {e.metrics.skip_ratio:.3f}"
    medians = {
        token: statistics.median(vals)
        for token, vals in suite1["skip_ratio_3pct"].items()
    }
    # The >= 0.5 medians on the random suite are reported, asserted only on
    # the handoff trace.
    print(
        "CRITERION 8 (skip behavior): PASS  "
        f"[handoff >= 95%; 3% suite medians: uclock {medians['uclock']:.3f}, "
        f"orderedlist {medians['orderedlist']:.3f}]"
    )


def test_criterion_9_extended_mode(suite1):
    assert not suite1["c9"], "\n".join(suite1["c9"][:10])
    print("CRITERION 9 (extended mode set + check budget): PASS")


def test_criterion_10_golden_worked_examples(ladder_trace):
    # Right-table trajectory of the running example
    e = run_prefix("sampling", ladder_trace, 6)
    assert (e.epochs[0], e.c_threads[0], e.c_locks[3]) == (2, [1, 0], [1, 0])
    e = run_prefix("sampling", ladder_trace, 10)
    assert e.epochs[0] == 2 and e.c_locks[2] == [1, 0]
    e = run_prefix("sampling", ladder_trace, 18)
    assert e.epochs[0] == 3 and e.c_threads[0] == [2, 0] and e.c_threads[1] == [2, 0]

    # Skip decisions: e12 and e14 skipped, e8 and e18 processed, both engines
    for token in ("uclock", "orderedlist"):
        skips = skip_decisions(create_engine(token, ladder_trace), ladder_trace)
        assert skips[12] and skips[14] and not skips[8] and not skips[18], token

    # Single-entry update under a freshness gap of one
    uc = create_engine("uclock", empty_trace(6, 1, 1))
    uc.c_threads[0] = [9, 6, 3, 0, 1, 0]
    uc.u_threads[0] = [15, 12, 4, 0, 1, 0]
    uc.c_threads[1] = [8, 18, 3, 0, 1, 0]
    uc.u_threads[1] = [14, 22, 3, 0, 1, 0]
    uc.c_locks[0] = [9, 6, 3, 0, 1, 0]
    uc.u_locks[0] = [15, 12, 4, 0, 1, 0]
    uc.last_releaser[0] = 0
    uc._acquire(1, 1, 0, False)
    assert uc.c_threads[1] == [9, 18, 3, 0, 1, 0]

    # The same for orderedlist: t0's own entry 9 is private to its list and
    # reaches t1 as the lock epoch; the one-entry walk visits t1's entry.
    ol = create_engine("orderedlist", empty_trace(6, 1, 1))
    donor = OrderedList(6, 0)
    for tid, val in [(4, 1), (2, 3), (1, 6)]:
        donor.set(tid, val)
    donor.times[0] = 9
    for tid, val in [(4, 1), (2, 3), (0, 8)]:
        ol.o_threads[1].set(tid, val)
    ol.o_threads[1].times[1] = 18
    ol.epochs[1] = 19
    ol.u_threads[1] = [14, 22, 3, 0, 1, 0]
    donor.refs += 1
    ol.published[0] = (donor, 0, 15, 9)
    ol._acquire(1, 1, 0, False)
    assert ol.metrics.nodes_visited == 1
    assert ol.o_threads[1].snapshot() == [9, 18, 3, 0, 1, 0]
    assert ol.u_threads[1][:2] == [15, 23]  # one set

    # Ordered-list mutation example: set then increment, head-first prefix;
    # the list's owner, a sixth thread, is outside the five entries walked
    o, bottom = OrderedList(6, 5), OrderedList(6, 5)
    for tid, time in [(3, 0), (2, 8), (4, 1), (1, 20), (0, 6)]:
        o.set(tid, time)
    assert o.times[2] == 8
    assert o.snapshot() == [6, 20, 8, 0, 1, 0]
    o.set(3, 6)
    assert o.newer_in_prefix(1, bottom) == [(3, 6)]
    o.set(0, o.times[0] + 1)
    assert o.newer_in_prefix(2, bottom) == [(0, 7), (3, 6)]
    print("CRITERION 10 (golden worked examples): PASS")
