"""Differential suite: bucketed simulators vs the per-access oracles.

Seeded random traces and real kernel traces are replayed through both
the per-access LRU and Belady loops in ``tests/oracles/cache.py`` and
the bucketed engines in ``repro.cache.fast``; the resulting
``CacheStats`` must be equal field-by-field (dataclass equality covers
accesses, hits, misses, evictions, dead-line counters and the
per-region miss split).  The geometry grid includes the direct-mapped
(``ways=1``) and fully-associative (``n_sets=1``) edge cases.  LRU has
one replay, from reuse windows; ``test_lru_wide_plan`` and the real
kernel traces on 4096 x 4 hold it to the oracle on plans wider than
1024 runs per round.  Belady has two schedules, a serial per-set loop
and lockstep rounds for wide plans; the grid's random traces take the
serial one, Belady's 512-set geometry keeps its rounds loop covered,
and ``test_schedule_crossover`` pins which side each plan takes and
forces the other.  ``test_lru_blocks`` replays the LRU traces split
into blocks and requires the oracle's counters too;
``test_lru_reuse_windows`` does the same for reuse windows of 10^4
runs cut while the carried LRU stacks are still filling.
``test_spgemm_traces_drop_continuations`` replays every test-corpus
SpGEMM trace, whose bucketing drops most accesses before its sort, and
``test_compaction_decision`` pins each side of that decision.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.cache import CacheConfig, simulate
from repro.cache.fast import belady as fast_belady
from repro.cache.fast import bucket as fast_bucket
from repro.cache.fast import simulate_belady_fast, simulate_lru_blocks, simulate_lru_fast
from repro.gpu.specs import scaled_platform
from repro.graphs.corpus import corpus_names, hash_name, load_graph
from repro.graphs.generators.powerlaw import rmat
from repro.sparse.convert import coo_to_csr
from repro.trace.kernelspec import KernelSpec
from tests.oracles.cache import bucket_reference, simulate_belady, simulate_lru

#: (n_sets, ways) grid: direct-mapped, fully-associative, square, wide.
GEOMETRIES = [
    (1, 1),
    (1, 4),
    (1, 16),
    (4, 1),
    (16, 1),
    (4, 4),
    (16, 4),
    (8, 2),
    (64, 16),
    (512, 4),
]

REFERENCE = {"lru": simulate_lru, "belady": simulate_belady}
FAST = {"lru": simulate_lru_fast, "belady": simulate_belady_fast}


def config_for(n_sets: int, ways: int, line_bytes: int = 32) -> CacheConfig:
    return CacheConfig(
        capacity_bytes=n_sets * ways * line_bytes,
        line_bytes=line_bytes,
        ways=ways,
    )


def assert_identical_stats(reference, fast, context=""):
    for field in dataclasses.fields(reference):
        assert getattr(reference, field.name) == getattr(fast, field.name), (
            f"{context}: field {field.name!r} diverges: "
            f"reference={getattr(reference, field.name)!r} "
            f"fast={getattr(fast, field.name)!r}"
        )
    assert reference == fast


def random_trace(rng, style: str, n: int) -> np.ndarray:
    if style == "uniform":
        return rng.integers(0, max(1, n // 4 + 3), size=n)
    if style == "hot":
        hot = rng.integers(0, 8, size=n)
        cold = rng.integers(0, 10 * n + 1, size=n)
        pick = rng.random(n) < 0.6
        return np.where(pick, hot, cold)
    # "stream": sequential sweeps with an irregular gather interleaved
    sweep = np.arange(n) // 3
    gather = rng.integers(0, max(1, n // 2), size=n) + 10 * n
    out = np.empty(n, dtype=np.int64)
    out[0::2] = sweep[0::2]
    out[1::2] = gather[1::2]
    return out


@pytest.mark.parametrize("policy", ["lru", "belady"])
@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("style", ["uniform", "hot", "stream"])
def test_random_traces(policy, geometry, style):
    n_sets, ways = geometry
    config = config_for(n_sets, ways)
    rng = np.random.default_rng(hash_name(f"{policy}-{n_sets}-{ways}-{style}"))
    for n in (0, 1, 2, ways, 4 * n_sets * ways, 5000):
        trace = random_trace(rng, style, n)
        regions = [("low", 0, max(1, n // 8)), ("mid", max(1, n // 8), n + 1)]
        reference = REFERENCE[policy](trace, config, regions)
        fast = FAST[policy](trace, config, regions)
        assert_identical_stats(
            reference, fast, f"{policy} {n_sets}x{ways} {style} n={n}"
        )


def block_cuts(rng, trace: np.ndarray):
    """Cut positions for ``np.split``: none (the whole trace as one
    block), then 1-access blocks, a cut inside same-line runs and
    seeded random cuts."""
    yield []
    n = trace.size
    if n < 2:
        return
    in_runs = np.nonzero(trace[1:] == trace[:-1])[0][:16] + 1
    random_cuts = rng.choice(np.arange(1, n), size=min(n - 1, 8), replace=False)
    yield np.unique(np.concatenate([np.arange(1, min(n, 12)), in_runs, random_cuts]))


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("style", ["uniform", "hot", "stream"])
def test_lru_blocks(geometry, style):
    """``test_random_traces``' LRU traces, replayed in blocks that carry
    the cache state across each cut, match the per-access oracle."""
    n_sets, ways = geometry
    config = config_for(n_sets, ways)
    rng = np.random.default_rng(hash_name(f"lru-{n_sets}-{ways}-{style}"))
    cut_rng = np.random.default_rng(hash_name(f"cuts-{n_sets}-{ways}-{style}"))
    for n in (0, 1, 2, ways, 4 * n_sets * ways, 5000):
        trace = random_trace(rng, style, n)
        regions = [("low", 0, max(1, n // 8)), ("mid", max(1, n // 8), n + 1)]
        reference = simulate_lru(trace, config, regions)
        for cuts in block_cuts(cut_rng, trace):
            blocks = np.split(trace, cuts)
            assert_identical_stats(
                reference,
                simulate_lru_blocks(blocks, config, regions),
                f"{n_sets}x{ways} {style} n={n} in {len(blocks)} blocks",
            )


#: Runs between the two uses of each reused line in ``reuse_window_trace``.
WINDOW_RUNS = 10_000


def reuse_window_trace(n_sets: int, ways: int, base: int) -> np.ndarray:
    """Three long reuse windows over sets 0-2 (one after another where
    they share a set).  Each touches line 1, then its reused line 0,
    which comes back after ``WINDOW_RUNS`` runs cycling over ``ways - 1``
    lines (a hit), cycling over ``ways`` lines (a miss), or cycling over
    ``ways - 1`` lines and then one more (a miss only the window's end
    shows).  Line 1 is in every cycle, so no window holds ``ways`` lines
    new to the whole trace.  Line ids start at ``base``."""
    cycle = [1 + r % max(1, ways - 1) for r in range(WINDOW_RUNS)]
    phases = [
        [1, 0] + cycle + [0],
        [1, 0] + [1 + r % ways for r in range(WINDOW_RUNS)] + [0],
        [1, 0] + cycle + [ways, 0],
    ]
    sets = [[] for _ in range(min(n_sets, len(phases)))]
    for k, phase in enumerate(phases):
        s = k % len(sets)
        fresh = (k // len(sets)) * (ways + 1)
        sets[s] += [(line + fresh) * n_sets + s for line in phase]
    # Round robin over the sets; a set that ends early repeats its last
    # line, which only lengthens its last run.
    length = max(len(lines) for lines in sets)
    padded = [lines + lines[-1:] * (length - len(lines)) for lines in sets]
    return np.asarray(padded, dtype=np.int64).T.reshape(-1) + base


@pytest.mark.parametrize("base", [0, 2**33])
@pytest.mark.parametrize("geometry", [(1, 1), (1, 16), (2, 1), (2, 3), (4, 16), (4, 64)])
def test_lru_reuse_windows(geometry, base):
    """Reuse windows of 10^4 runs match the oracle whole, and cut by a
    block boundary right after each set's reused line first runs, while
    each carried stack holds at most two lines.  ``base = 2**33`` keeps
    every line id above 2**31; ``ways = 1`` and one set are covered
    too."""
    n_sets, ways = geometry
    config = config_for(n_sets, ways)
    trace = reuse_window_trace(n_sets, ways, base)
    regions = [("hit", base, base + 2 * n_sets), ("rest", base + 2 * n_sets, base + 2**20)]
    reference = simulate_lru(trace, config, regions)
    if ways > 1:
        # One miss per distinct line, plus the two windows that miss.
        assert reference.misses == 3 * ways + 4
    early = 2 * min(n_sets, 3)
    rng = np.random.default_rng(hash_name(f"windows-{n_sets}-{ways}"))
    inside = np.sort(rng.choice(np.arange(early + 1, trace.size - 1), size=3, replace=False))
    for cuts in ([], [early], [early, *inside, trace.size - 1]):
        assert_identical_stats(
            reference,
            simulate_lru_blocks(np.split(trace, cuts), config, regions),
            f"{n_sets}x{ways} base={base} cuts={cuts}",
        )


@pytest.mark.parametrize("policy", ["lru", "belady"])
def test_sparse_line_ids(policy):
    """Huge, sparse line-id ranges exercise the id-compaction path."""
    config = config_for(16, 4)
    rng = np.random.default_rng(99)
    trace = rng.integers(0, 2**60, size=400) * 3 + rng.integers(0, 7, size=400)
    reference = REFERENCE[policy](trace, config)
    fast = FAST[policy](trace, config)
    assert_identical_stats(reference, fast, f"{policy} sparse ids")


#: Wider than any plan the reuse windows took while LRU also had a
#: rounds schedule: it replayed plans of 1024 or more runs per round.
OLD_ROUNDS_WIDTH = 1024


@pytest.mark.parametrize("policy", ["lru", "belady"])
@pytest.mark.parametrize(
    "kernel", ["spmv-csr", "spmv-coo", "spmm-csr-4", "spgemm-csr"]
)
@pytest.mark.parametrize("matrix", ["test-comm", "test-rmat"])
def test_real_kernel_traces(policy, kernel, matrix):
    """Real kernel traces with region splits, on three cache geometries.

    On 4096 x 4, test-comm's plans average more than 1024 runs per
    round (1,216 for spmv-csr, 1,600 for spmm-csr-4), LRU's widest
    plans here; every plan there takes Belady's rounds.  test-rmat's
    spmv-csr trace touches only 994 lines, so its plan cannot be as
    wide."""
    graph = load_graph(matrix)
    platform = scaled_platform("test")
    trace = KernelSpec.parse(kernel).build_trace(graph.adjacency, platform)
    for n_sets, ways in [(4, 16), (64, 16), (4096, 4)]:
        config = config_for(n_sets, ways, line_bytes=platform.line_bytes)
        reference = REFERENCE[policy](trace.lines, config, trace.regions)
        fast = FAST[policy](trace.lines, config, trace.regions)
        assert_identical_stats(
            reference, fast, f"{policy} {kernel} {matrix} {n_sets}x{ways}"
        )
        assert reference.region_misses  # the split actually exercised
    plan = fast_bucket.bucket_trace(trace.lines, 4096)
    assert fast_belady.schedule(plan) == "rounds"
    if matrix == "test-comm":
        assert plan.lines.size > OLD_ROUNDS_WIDTH * plan.rounds


def test_lru_wide_plan():
    """A 20K-access uniform trace on 4096 x 4 averages more than 1024
    runs per round and matches the oracle, whole and in blocks."""
    config = config_for(4096, 4)
    rng = np.random.default_rng(7)
    trace = rng.integers(0, 1 << 16, size=20000)
    regions = [("low", 0, 1 << 14), ("mid", 1 << 14, 3 << 14)]
    plan = fast_bucket.bucket_trace(trace, config.n_sets)
    assert plan.lines.size > OLD_ROUNDS_WIDTH * plan.rounds
    reference = simulate_lru(trace, config, regions)
    for cuts in ([], [1, 5000, 5001, 12345]):
        assert_identical_stats(
            reference,
            simulate_lru_blocks(np.split(trace, cuts), config, regions),
            f"4096x4 uniform cuts={cuts}",
        )


@pytest.mark.parametrize(
    "geometry, schedule",
    [
        pytest.param((4, 4), "serial", id="geometry0-serial-belady"),
        pytest.param((512, 4), "rounds", id="geometry1-rounds-belady"),
    ],
)
def test_schedule_crossover(geometry, schedule, monkeypatch):
    """Belady replays a narrow plan on its serial loop and a wide one in
    rounds, and both agree with the oracle.  Each geometry is also
    replayed with Belady's width forced to the other schedule, so both
    schedules are checked on both sides.
    """
    n_sets, ways = geometry
    config = config_for(n_sets, ways)
    rng = np.random.default_rng(7)
    trace = rng.integers(0, 1 << 16, size=20000)
    regions = [("low", 0, 1 << 14), ("mid", 1 << 14, 3 << 14)]
    plan = fast_bucket.bucket_trace(trace, n_sets)
    assert fast_belady.schedule(plan) == schedule
    reference = simulate_belady(trace, config, regions)
    assert_identical_stats(
        reference, simulate_belady_fast(trace, config, regions), f"belady {schedule}"
    )
    forced = {"serial": 0, "rounds": 2**62}[schedule]
    monkeypatch.setattr(fast_belady, "SERIAL_WIDTH", forced)
    assert fast_belady.schedule(plan) != schedule
    assert_identical_stats(
        reference, simulate_belady_fast(trace, config, regions), f"belady not {schedule}"
    )


@pytest.mark.parametrize("policy", ["lru", "belady"])
def test_dispatch_impls_agree(policy):
    """simulate() matches the oracle on test-comm's 13K-access trace on
    64 x 4 and on a 168K-access R-MAT scale-12 trace on 512 x 16."""
    platform = scaled_platform("test")
    test_comm = KernelSpec.parse("spmv-csr").build_trace(
        load_graph("test-comm").adjacency, platform
    )
    rmat12 = KernelSpec.parse("spmv-csr").build_trace(
        coo_to_csr(rmat(12, 8, seed=7, directed=False)), line_bytes=32
    )
    for trace, config in [(test_comm, config_for(64, 4)), (rmat12, config_for(512, 16))]:
        assert_identical_stats(
            REFERENCE[policy](trace.lines, config, trace.regions),
            simulate(trace, config, policy=policy),
            f"{policy} {trace.lines.size} accesses on {config.n_sets}x{config.ways}",
        )


@pytest.fixture
def compactions(monkeypatch):
    """Whether each bucketing since the fixture was set up dropped its
    continuations before the sort."""
    dropped = []
    drop = fast_bucket.drop_continuations

    def spy(trace, sets):
        result = drop(trace, sets)
        dropped.append(result is not None)
        return result

    monkeypatch.setattr(fast_bucket, "drop_continuations", spy)
    return dropped


@pytest.mark.parametrize("policy", ["lru", "belady"])
@pytest.mark.parametrize("matrix", corpus_names("test"))
def test_spgemm_traces_drop_continuations(policy, matrix, compactions):
    """Every test-corpus spgemm-csr trace on 4 x 16 and 16 x 16 matches
    the oracle through ``simulate``, and its bucketing dropped
    continuations: the B-row walk alternates two lines in different
    sets."""
    platform = scaled_platform("test")
    trace = KernelSpec.parse("spgemm-csr").build_trace(load_graph(matrix).adjacency, platform)
    for n_sets, ways in [(4, 16), (16, 16)]:
        config = config_for(n_sets, ways, line_bytes=platform.line_bytes)
        compactions.clear()
        assert_identical_stats(
            REFERENCE[policy](trace.lines, config, trace.regions),
            simulate(trace, config, policy=policy),
            f"{policy} spgemm-csr {matrix} {n_sets}x{ways}",
        )
        assert any(compactions), (matrix, n_sets)


@pytest.mark.parametrize("compacts", [True, False], ids=["drops", "keeps"])
def test_compaction_decision(compacts, compactions):
    """A 100-access trace on 4 sets drops its continuations when they
    are at least ``COMPACT_SHARE`` of it and keeps them one short of
    that; the plan and both policies' counters match the oracles either
    way.  Two lines in different sets alternating for ``k`` accesses
    give ``k - 2`` continuations; the padding lines never repeat."""
    n, n_sets = 100, 4
    needed = math.ceil(fast_bucket.COMPACT_SHARE * n)
    alternating = [0, 1] * n
    head = alternating[: needed + 2 if compacts else needed + 1]
    trace = np.asarray(head + list(range(2, 2 + n - len(head))), dtype=np.int64)

    plan = fast_bucket.bucket_trace(trace, n_sets)
    assert compactions == [compacts]
    reference = bucket_reference(trace, n_sets)
    assert plan.lines.tolist() == reference["lines"]
    assert plan.pos_first.tolist() == reference["pos_first"]
    assert plan.multi.tolist() == reference["multi"]
    assert plan.set_offsets.tolist() == reference["set_offsets"]
    assert plan.rounds == reference["rounds"]
    config = config_for(n_sets, 2)
    for policy in ("lru", "belady"):
        assert_identical_stats(
            REFERENCE[policy](trace, config), FAST[policy](trace, config), policy
        )
