"""Property-based tests for the cache simulators (hypothesis)."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache import compulsory_misses, simulate
from repro.cache.config import CacheConfig
from repro.cache.fast import simulate_belady_fast, simulate_lru_blocks
from repro.cache.fast.bucket import bucket_trace
from tests.oracles.cache import (
    bucket_reference,
    next_use_index,
    simulate_belady,
    simulate_lru,
)

traces = st.lists(st.integers(0, 30), min_size=0, max_size=300).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)

configs = st.sampled_from(
    [
        CacheConfig(capacity_bytes=64, line_bytes=32, ways=1),
        CacheConfig(capacity_bytes=128, line_bytes=32, ways=2),
        CacheConfig(capacity_bytes=256, line_bytes=32, ways=4),
        CacheConfig(capacity_bytes=512, line_bytes=32, ways=4),
        CacheConfig(capacity_bytes=1024, line_bytes=32, ways=32),
    ]
)


class TestSimulatorInvariants:
    @given(traces, configs)
    @settings(max_examples=80, deadline=None)
    def test_lru_accounting(self, trace, config):
        stats = simulate(trace, config)
        stats.check_consistency()
        assert stats.misses >= compulsory_misses(trace)
        assert stats.dead_lines <= stats.misses

    @given(traces, configs)
    @settings(max_examples=80, deadline=None)
    def test_belady_accounting(self, trace, config):
        stats = simulate(trace, config, policy="belady")
        stats.check_consistency()
        assert stats.misses >= compulsory_misses(trace)

    @given(traces, configs)
    @settings(max_examples=80, deadline=None)
    def test_belady_never_worse_than_lru(self, trace, config):
        """The defining property of the optimal policy."""
        opt = simulate(trace, config, policy="belady")
        lru = simulate(trace, config)
        assert opt.misses <= lru.misses

    @given(traces)
    @settings(max_examples=80, deadline=None)
    def test_lru_capacity_monotonicity(self, trace):
        """Fully-associative LRU has the stack (inclusion) property:
        more capacity can never add misses."""
        small = simulate(trace, CacheConfig(capacity_bytes=128, line_bytes=32, ways=4))
        large = simulate(trace, CacheConfig(capacity_bytes=256, line_bytes=32, ways=8))
        assert large.misses <= small.misses

    @given(traces)
    @settings(max_examples=80, deadline=None)
    def test_next_use_is_future_position_of_same_line(self, trace):
        next_use = next_use_index(trace)
        n = trace.size
        for i in range(n):
            j = next_use[i]
            if j < n:
                assert j > i
                assert trace[j] == trace[i]
                # No intermediate occurrence of the same line.
                assert not np.any(trace[i + 1: j] == trace[i])
            else:
                assert not np.any(trace[i + 1:] == trace[i])

    @given(traces, configs)
    @settings(max_examples=60, deadline=None)
    def test_repeating_trace_second_pass_bounded(self, trace, config):
        """On a doubled trace, misses cannot exceed twice the single-pass
        misses (each pass is at worst the cold run)."""
        if trace.size == 0:
            return
        doubled = np.concatenate([trace, trace])
        once = simulate(trace, config)
        twice = simulate(doubled, config)
        assert twice.misses <= 2 * once.misses


class TestLruBlocksMatchOracle:
    @given(traces, configs, st.data())
    @settings(max_examples=150, deadline=None)
    def test_blocks_equal_oracle(self, trace, config, data):
        """Any trace, cut into blocks anywhere, gives the per-access
        oracle's counters field by field."""
        n = trace.size
        cuts = data.draw(
            st.lists(st.integers(1, max(1, n - 1)), max_size=8, unique=True).map(sorted)
            if n > 1
            else st.just([])
        )
        regions = [("low", 0, 8), ("high", 8, 31)]
        blocks = simulate_lru_blocks(np.split(trace, cuts), config, regions)
        oracle = simulate_lru(trace, config, regions)
        assert dataclasses.asdict(blocks) == dataclasses.asdict(oracle)


@st.composite
def two_line_streams(draw):
    """``(n_sets, trace)`` on 1-16 sets: segments that repeat one line
    (period 1) or alternate two (period 2).  A pair's second line often
    shares its first's set, where the period-2 continuation rule must
    not fire."""
    n_sets = draw(st.integers(1, 16))
    trace = []
    for _ in range(draw(st.integers(1, 8))):
        a = draw(st.integers(0, 40))
        b = draw(st.integers(0, 40) | st.integers(1, 3).map(lambda k: a + k * n_sets))
        length = draw(st.integers(1, 24))
        trace += [a] * length if draw(st.booleans()) else [a, b] * length
    return n_sets, np.asarray(trace, dtype=np.int64)


class TestBucketContinuations:
    @given(two_line_streams(), st.sampled_from([1, 2, 4]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_plan_and_stats_equal_oracles(self, stream, ways, data):
        """Whether or not bucketing drops the continuations, the plan is
        the per-set reference bucketing's, and LRU (whole and cut into
        blocks) and Belady give the per-access oracles' counters."""
        n_sets, trace = stream
        plan = bucket_trace(trace, n_sets)
        reference = bucket_reference(trace, n_sets)
        assert plan.lines.tolist() == reference["lines"]
        assert plan.pos_first.tolist() == reference["pos_first"]
        assert plan.multi.tolist() == reference["multi"]
        assert plan.set_offsets.tolist() == reference["set_offsets"]
        assert plan.rounds == reference["rounds"]

        config = CacheConfig(capacity_bytes=n_sets * ways * 32, line_bytes=32, ways=ways)
        regions = [("low", 0, 8), ("high", 8, 200)]
        belady = simulate_belady_fast(trace, config, regions)
        assert dataclasses.asdict(belady) == dataclasses.asdict(
            simulate_belady(trace, config, regions)
        )
        n = trace.size
        cuts = data.draw(
            st.lists(st.integers(1, max(1, n - 1)), max_size=8, unique=True).map(sorted)
            if n > 1
            else st.just([])
        )
        oracle = dataclasses.asdict(simulate_lru(trace, config, regions))
        for blocks in ([trace], np.split(trace, cuts)):
            assert dataclasses.asdict(simulate_lru_blocks(blocks, config, regions)) == oracle
