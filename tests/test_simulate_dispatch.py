"""The public simulate() entry point: engine choice, inputs, obs."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.cache import CacheConfig, simulate
from repro.errors import ValidationError
from repro.gpu.specs import scaled_platform
from repro.graphs.corpus import load_graph
from repro.obs import Instrumentation, MemorySink, using
from repro.trace.kernelspec import KernelSpec


@pytest.fixture
def trace():
    rng = np.random.default_rng(3)
    return rng.integers(0, 400, size=6000)


@pytest.fixture
def config():
    return CacheConfig(capacity_bytes=64 * 16 * 32, line_bytes=32, ways=16)


def engine_tag(trace, config, policy):
    """The ``impl`` tag of the ``cache-sim`` span one simulate() call emits."""
    sink = MemorySink()
    with using(Instrumentation(sink=sink)):
        simulate(trace, config, policy=policy)
    (span,) = [e for e in sink.by_kind("span") if e["name"] == "cache-sim"]
    return span["tags"]["impl"]


class TestResolution:
    def test_invalid_policy_rejected(self, trace, config):
        with pytest.raises(ValidationError):
            simulate(trace, config, policy="fifo")

    @pytest.mark.parametrize(
        "n_sets, n_accesses, engine",
        [(4, 8192, "reference"), (16, 8192, "fast"), (16, 8191, "reference")],
    )
    def test_belady_engine_follows_input(self, n_sets, n_accesses, engine):
        """Belady's loop wins below 16 sets or 8192 accesses."""
        config = CacheConfig(capacity_bytes=n_sets * 16 * 32, line_bytes=32, ways=16)
        trace = np.random.default_rng(5).integers(0, 4 * n_sets * 16, size=n_accesses)
        assert engine_tag(trace, config, "belady") == engine

    def test_lru_always_vectorized(self):
        """Even a short trace on the 4-set test L2 takes the fast LRU engine."""
        config = scaled_platform("test").cache_config()
        assert config.n_sets == 4
        trace = np.random.default_rng(6).integers(0, 512, size=1000)
        assert engine_tag(trace, config, "lru") == "fast"


class TestInputs:
    def test_kernel_trace_input_uses_its_regions(self, config):
        graph = load_graph("test-comm")
        trace = KernelSpec.parse("spmv-csr").build_trace(
            graph.adjacency, scaled_platform("test")
        )
        stats = simulate(trace, config)
        assert stats.region_misses
        assert sum(stats.region_misses.values()) == stats.misses
        suppressed = simulate(trace, config, regions=())
        assert suppressed.region_misses == {}
        assert suppressed.misses == stats.misses

    def test_ndarray_input_no_regions(self, trace, config):
        stats = simulate(trace, config)
        assert stats.region_misses == {}

    def test_policies_differ(self, trace, config):
        lru = simulate(trace, config, policy="lru")
        belady = simulate(trace, config, policy="belady")
        assert belady.misses <= lru.misses


class TestObsWiring:
    def test_span_and_counters(self, trace, config):
        sink = MemorySink()
        instr = Instrumentation(sink=sink)
        with using(instr):
            simulate(trace, config, policy="lru")
        spans = [e for e in sink.by_kind("span") if e["name"] == "cache-sim"]
        assert len(spans) == 1
        assert spans[0]["tags"]["policy"] == "lru"
        assert spans[0]["tags"]["impl"] == "fast"
        assert spans[0]["tags"]["accesses"] == trace.size
        assert instr.counters.get("cache.lru.accesses") == trace.size


class TestDeprecatedAliases:
    def test_facade_exports(self):
        assert repro.simulate is simulate
        assert repro.KernelSpec is KernelSpec
        for name in ("simulate", "KernelSpec"):
            assert name in repro.__all__
        # The deprecated per-policy aliases are gone, not re-exported.
        for name in ("simulate_lru", "simulate_belady"):
            assert not hasattr(repro, name)
            assert not hasattr(repro.cache, name)
