import hashlib
import random
import tracemalloc

import pytest

from conftest import random_config
from racelab.gen import GenConfig, generate_trace
from racelab.trace import InfeasibleConfigError, OpKind, parse_trace, serialize_trace


def test_single_thread_single_lock_validates():
    tr = generate_trace(GenConfig(threads=1, locks=1, vars=1, events=4, p_sync=0.8), 3)
    assert len(tr) == 4  # construction would have raised on a discipline violation


def test_deterministic_in_config_and_seed():
    cfg = GenConfig(threads=4, locks=3, vars=2, events=200, p_sync=0.4, contention=0.5)
    assert generate_trace(cfg, 11) == generate_trace(cfg, 11)
    assert generate_trace(cfg, 11) != generate_trace(cfg, 12)


def test_fuzz_one_thousand_configs_validate():
    rng = random.Random(2026)
    for i in range(1000):
        cfg = random_config(rng, max_events=120)
        tr = generate_trace(cfg, i)  # Trace construction re-validates
        assert len(tr) == cfg.events
        assert parse_trace(serialize_trace(tr)) == tr


def test_all_critical_sections_closed():
    rng = random.Random(5)
    for i in range(50):
        tr = generate_trace(random_config(rng), i)
        held = {}
        for ev in tr.events:
            if ev.kind is OpKind.ACQUIRE:
                held[ev.target] = ev.thread
            elif ev.kind is OpKind.RELEASE:
                held.pop(ev.target)
        assert held == {}, "generator left critical sections open"


def test_contention_reuses_last_released_lock():
    # threads=8 at full contention: acquires overwhelmingly grab the lock
    # released most recently (measured on the generated output).
    for seed in range(5):
        cfg = GenConfig(
            threads=8, locks=1, vars=4, events=4000,
            p_sync=0.5, contention=1.0, accesses_per_cs=1.0,
        )
        tr = generate_trace(cfg, seed)
        last = None
        hits = total = 0
        for ev in tr.events:
            if ev.kind is OpKind.ACQUIRE:
                total += 1
                hits += ev.target == last
            elif ev.kind is OpKind.RELEASE:
                last = ev.target
        assert total > 100
        assert hits / total > 0.9


def test_every_lock_acquired_when_events_permit():
    cfg = GenConfig(threads=4, locks=4, vars=2, events=400, p_sync=0.5, contention=0.2)
    for seed in range(5):
        tr = generate_trace(cfg, seed)
        acquired = {e.target for e in tr.events if e.kind is OpKind.ACQUIRE}
        assert len(acquired) == tr.num_locks == 4


def test_infeasible_config_raises():
    with pytest.raises(InfeasibleConfigError):
        generate_trace(GenConfig(threads=2, locks=1, vars=1, events=5, p_sync=1.0), 0)
    with pytest.raises(InfeasibleConfigError):
        generate_trace(GenConfig(threads=1, locks=1, vars=1, events=1, p_sync=1.0), 0)


def test_pure_sync_config_generates_lock_pairs():
    tr = generate_trace(GenConfig(threads=2, locks=2, vars=1, events=40, p_sync=1.0), 1)
    assert len(tr) == 40
    assert not any(e.is_access for e in tr.events)


# The three benchmark trace shapes (the `racelab gen` flags of perfbench's
# workloads) with the sha256 of their text at two seeds.  Any change to the
# generator's RNG call order or to the serializer changes these digests.
_BENCHMARK_SHAPES = {
    "sync-heavy": GenConfig(64, 64, 256, 25_000, p_sync=0.8, contention=0.0, accesses_per_cs=1.0),
    "sparse-extended": GenConfig(64, 16, 256, 25_000, p_sync=0.3, contention=0.0, accesses_per_cs=2.0),
    "dense-full": GenConfig(8, 8, 64, 25_000, p_sync=0.3, contention=0.0, accesses_per_cs=2.0),
}


@pytest.mark.parametrize(
    "shape,seed,digest",
    [
        ("sync-heavy", 7, "356ea87dd9fc47f53d8044fa1c030f1ef67cdea269cd706c04d05cd8c1c74b52"),
        ("sync-heavy", 90210, "169ed1f9553d99bc350ff3a07c34b833f14dcd2e51de288b82af46642ee6fb80"),
        ("sparse-extended", 7, "af2c0f0f23e49f5b85811e68a2e19f51e3d7e9c638e60e4b0553324cc721d461"),
        ("sparse-extended", 90210, "528bcc40e6a60be417babf71a89fe5541dbf7b5917dba8a33db300e4f72a54d9"),
        ("dense-full", 7, "9cc7c2b93c6d1ddea8ae93b29d9cd2df3e87f19bf059c605052df849aec9dec5"),
        ("dense-full", 90210, "8d56505344720ce3c60545fcce557276fb926a92d89da8770506d40da8de5b63"),
    ],
)
def test_benchmark_traces_are_pinned_byte_for_byte(shape, seed, digest):
    text = serialize_trace(generate_trace(_BENCHMARK_SHAPES[shape], seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_generate_trace_peaks_at_most_twice_the_retained_bytes():
    # The generator emits into the array columns and relabels them in place,
    # so no list of events or second copy of a column is ever alive.
    cfg = GenConfig(threads=8, locks=8, vars=64, events=20_000)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        tr = generate_trace(cfg, 4)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tr) == 20_000
    assert peak - base <= 2 * (retained - base)
