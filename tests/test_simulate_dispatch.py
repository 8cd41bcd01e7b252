"""The public simulate() entry point: policy check, inputs, obs."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.cache import CacheConfig, simulate
from repro.errors import ValidationError
from repro.gpu.specs import scaled_platform
from repro.graphs.corpus import load_graph
from repro.obs import Instrumentation, MemorySink, using
from repro.trace import kernel_traces
from repro.trace.kernelspec import KernelSpec


@pytest.fixture
def trace():
    rng = np.random.default_rng(3)
    return rng.integers(0, 400, size=6000)


@pytest.fixture
def config():
    return CacheConfig(capacity_bytes=64 * 16 * 32, line_bytes=32, ways=16)


class TestResolution:
    def test_invalid_policy_rejected(self, trace, config):
        with pytest.raises(ValidationError):
            simulate(trace, config, policy="fifo")


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
        assert spans[0]["tags"]["accesses"] == trace.size
        assert instr.counters.get("cache.lru.accesses") == trace.size


    def test_lazy_blocks_are_charged_to_trace_building(self, monkeypatch):
        """Each lazily built SpGEMM block gets a ``trace`` span inside the
        ``cache-sim`` span, which tags the access count it simulated."""
        monkeypatch.setattr(kernel_traces, "BLOCK_ACCESSES", 4096)
        trace = KernelSpec.parse("spgemm-csr").build_trace(
            load_graph("test-comm").adjacency, scaled_platform("test")
        )
        instr = Instrumentation(sink=MemorySink(), enabled=True)
        with using(instr):
            stats = simulate(trace, scaled_platform("test").cache_config())
        spans = instr.sink.by_kind("span")
        (sim,) = [span for span in spans if span["name"] == "cache-sim"]
        blocks = [span for span in spans if span["name"] == "trace"]
        assert len(blocks) > 1
        assert all(span["parent_id"] == sim["span_id"] for span in blocks)
        assert sim["tags"]["accesses"] == stats.accesses


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
