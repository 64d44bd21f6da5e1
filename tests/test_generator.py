import hashlib
import random
import tracemalloc

import pytest

from conftest import random_config, rows, trace_text
from racelab.gen import GenConfig, _below, generate_trace
from racelab.trace import ACQ, READ, REL, InfeasibleConfigError, parse_trace


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
        assert parse_trace(trace_text(tr)) == tr


def test_all_critical_sections_closed():
    rng = random.Random(5)
    for i in range(50):
        tr = generate_trace(random_config(rng), i)
        held = {}
        for _, thread, kind, target, _ in rows(tr):
            if kind == ACQ:
                held[target] = thread
            elif kind == REL:
                held.pop(target)
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
        for kind, target in zip(tr.kinds, tr.targets):
            if kind == ACQ:
                total += 1
                hits += target == last
            elif kind == REL:
                last = target
        assert total > 100
        assert hits / total > 0.9


def test_every_lock_acquired_when_events_permit():
    cfg = GenConfig(threads=4, locks=4, vars=2, events=400, p_sync=0.5, contention=0.2)
    for seed in range(5):
        tr = generate_trace(cfg, seed)
        acquired = {target for kind, target in zip(tr.kinds, tr.targets) if kind == ACQ}
        assert len(acquired) == tr.num_locks == 4


def test_gen_config_keeps_its_fields_in_slots():
    cfg = GenConfig(4, 3, 2, 100, 0.5)
    assert (cfg.threads, cfg.locks, cfg.vars, cfg.events) == (4, 3, 2, 100)
    assert (cfg.p_sync, cfg.contention, cfg.accesses_per_cs) == (0.5, 0.0, 2.0)
    assert not hasattr(cfg, "__dict__")


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"threads": 0}, "threads must be >= 1"),
        ({"locks": 0}, "locks must be >= 1"),
        ({"vars": 0}, "vars must be >= 1"),
        ({"events": 0}, "events must be >= 1"),
        ({"p_sync": 1.5}, "p_sync must lie in [0, 1]"),
        ({"contention": -0.1}, "contention must lie in [0, 1]"),
        ({"accesses_per_cs": -1.0}, "accesses_per_cs must be non-negative"),
        ({"accesses_per_cs": float("nan")}, "accesses_per_cs must be non-negative"),
    ],
)
def test_gen_config_rejects_out_of_range_fields(kwargs, message):
    fields = dict(threads=2, locks=2, vars=2, events=10) | kwargs
    with pytest.raises(ValueError) as err:
        GenConfig(**fields)
    assert str(err.value) == message


def test_infeasible_config_raises():
    with pytest.raises(InfeasibleConfigError):
        generate_trace(GenConfig(threads=2, locks=1, vars=1, events=5, p_sync=1.0), 0)
    with pytest.raises(InfeasibleConfigError):
        generate_trace(GenConfig(threads=1, locks=1, vars=1, events=1, p_sync=1.0), 0)


def test_pure_sync_config_generates_lock_pairs():
    tr = generate_trace(GenConfig(threads=2, locks=2, vars=1, events=40, p_sync=1.0), 1)
    assert len(tr) == 40
    assert not any(kind >= READ for kind in tr.kinds)


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
    text = trace_text(generate_trace(_BENCHMARK_SHAPES[shape], seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# Corners of the generator the benchmark shapes never reach, pinned the same
# way: the contention draw, the all-sync branches, geometric sections of mean
# zero, nesting with two locks, one of each id, and wide lock tables.
@pytest.mark.parametrize(
    "cfg,seed,digest",
    [
        pytest.param(
            GenConfig(16, 8, 32, 6000, p_sync=0.5, contention=0.5, accesses_per_cs=1.0), 3,
            "bb3ca7f6ef4a8315e69549b0399ac55caaaedd005b9ade0cba222a050922d5dc",
            id="contention-0.5",
        ),
        pytest.param(
            GenConfig(16, 4, 32, 6000, p_sync=0.6, contention=1.0, accesses_per_cs=2.0), 3,
            "40440a10cc30bdc03dc81b790edc89a834751dea84f3ad60d0cdb75d07ff03e7",
            id="contention-1.0",
        ),
        pytest.param(
            GenConfig(8, 4, 8, 4000, p_sync=1.0, contention=0.3), 5,
            "1f5132fe6624676e926efd976c842d6caa93a8409969a2454c73f0afb369df0e",
            id="all-sync-even-budget",
        ),
        pytest.param(
            GenConfig(8, 6, 16, 4000, p_sync=0.5, accesses_per_cs=0.0), 5,
            "9461d43c0d8262dbfc68391666428d61e65b76f63ec2f24a693d19f0b7362094",
            id="no-accesses-per-cs",
        ),
        pytest.param(
            GenConfig(2, 2, 16, 4000, p_sync=0.9, contention=0.2, accesses_per_cs=4.0), 5,
            "ed5dd3c976ea3b757362ca3e45b438474bf1a646cef9c636682f693d677dcf10",
            id="nesting-heavy-two-locks",
        ),
        pytest.param(
            GenConfig(4, 2, 4, 2000, p_sync=1.0, accesses_per_cs=8.0), 5,
            "9596ee46e0c118d9ecfa90122431e60e30acf9958127a60211b0a331e64a34db",
            id="nesting-heavy-two-locks-all-sync",
        ),
        pytest.param(
            GenConfig(1, 1, 1, 1000, p_sync=0.5), 5,
            "1e9a2ede024e98e5c23f9dca68e585f1a4897e7988c186a0b7054949a9200cae",
            id="one-thread-lock-var",
        ),
        pytest.param(
            GenConfig(1024, 1024, 4096, 20_000, p_sync=0.5, accesses_per_cs=2.0), 5,
            "bb97bec60371e94a3085a69e6b9f42383f311885f1adc7daff493040bcaf2a87",
            id="T1024-L1024",
        ),
    ],
)
def test_generator_corners_are_pinned_byte_for_byte(cfg, seed, digest):
    text = trace_text(generate_trace(cfg, seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_closing_path_traces_are_pinned_byte_for_byte():
    # Budgets of a few events with long nested sections run out of slack
    # (hundreds of forced releases over these 160 traces).
    h = hashlib.sha256()
    for seed in range(40):
        for events in (6, 8, 12, 17):
            cfg = GenConfig(6, 6, 3, events, p_sync=0.9, contention=0.5, accesses_per_cs=6.0)
            h.update(trace_text(generate_trace(cfg, seed)).encode("utf-8"))
    assert h.hexdigest() == "63196266423c9454a3e5554e436bb6ad77226dcb068afecb7c3fff72983ac2bd"


def test_generate_trace_peaks_at_most_twice_the_retained_bytes():
    # The generator appends each event's dense ids to the array columns as
    # it draws it, so no list of events or second copy of a column is ever
    # alive.
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


def test_inlined_draw_matches_randrange_and_choice():
    # Byte-identity with the traces pinned above rests on ``_below`` drawing
    # exactly what CPython's ``randrange(n)`` and ``choice`` draw.  A
    # ``random()`` after each pair checks that both consumed the same words.
    sizes = list(range(1, 301)) + [1 << k for k in range(9, 63)]  # len(range) < 2**63
    ours, ref = random.Random(20260), random.Random(20260)
    for n in sizes:
        assert _below(ours.getrandbits, n) == ref.randrange(n), n
        assert _below(ours.getrandbits, n) == ref.choice(range(n)), n
        assert ours.random() == ref.random(), n
