"""Platform specs, roofline, run-time model and amortization."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.fast import simulate_lru_fast
from repro.errors import ValidationError
from repro.gpu.amortization import amortization_iterations
from repro.gpu.perf import ideal_time_seconds, model_run
from repro.gpu.roofline import (
    arithmetic_intensity_spmv,
    is_memory_bound,
    machine_balance,
)
from repro.gpu.specs import A6000, SCALED_A6000, scaled_platform
from repro.graphs.corpus import load_graph
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.trace import kernel_traces
from repro.trace.kernel_traces import spmv_csr_trace
from repro.trace.kernelspec import KernelSpec


class TestSpecs:
    def test_a6000_matches_table1(self):
        assert A6000.l2_capacity_bytes == 6 * 1024 * 1024
        assert A6000.peak_bandwidth_gbs == 768.0
        assert A6000.achievable_bandwidth_gbs == 672.0  # BabelStream
        assert A6000.peak_compute_tflops == 38.7
        assert A6000.dram_capacity_bytes == 48 * 1024**3

    def test_cache_config_derivation(self):
        config = SCALED_A6000.cache_config()
        assert config.capacity_bytes == SCALED_A6000.l2_capacity_bytes
        assert config.line_bytes == 32

    def test_profile_lookup(self):
        assert scaled_platform("full").l2_capacity_bytes == 32 * 1024
        assert scaled_platform("bench").l2_capacity_bytes == 8 * 1024
        with pytest.raises(ValidationError):
            scaled_platform("imaginary")

    def test_invalid_spec_rejected(self):
        import dataclasses

        with pytest.raises(ValidationError):
            dataclasses.replace(A6000, achievable_bandwidth_gbs=800.0)
        with pytest.raises(ValidationError):
            dataclasses.replace(A6000, irregular_efficiency=0.0)


class TestRoofline:
    def test_spmv_intensity_bounded_by_quarter(self):
        """Paper: SpMV's upper bound on arithmetic intensity is 0.25."""
        assert arithmetic_intensity_spmv(1000, 10**9) < 0.25
        assert arithmetic_intensity_spmv(1000, 10**9) == pytest.approx(0.25, rel=1e-3)

    def test_a6000_machine_balance_is_about_50(self):
        """Paper: the A6000 needs intensity >= ~50 to be compute-bound."""
        assert machine_balance(A6000) == pytest.approx(50.4, rel=0.01)

    def test_spmv_always_memory_bound_on_a6000(self):
        assert is_memory_bound(1_500_000, 50_000_000, A6000)

    def test_empty_matrix(self):
        assert arithmetic_intensity_spmv(0, 0) == 0.0


class TestRunModel:
    def make_run(self):
        rng = np.random.default_rng(0)
        coo = COOMatrix(512, 512, rng.integers(0, 512, 4096), rng.integers(0, 512, 4096))
        trace = spmv_csr_trace(coo_to_csr(coo))
        return model_run(trace, scaled_platform("test"))

    def test_normalized_traffic_at_least_one(self):
        run = self.make_run()
        assert run.normalized_traffic >= 1.0

    def test_runtime_at_least_traffic(self):
        """Charging irregular misses at lower efficiency can only slow
        the run relative to the pure-traffic ratio."""
        run = self.make_run()
        assert run.normalized_runtime >= run.normalized_traffic - 1e-9

    def test_byte_accounting(self):
        run = self.make_run()
        assert run.irregular_miss_bytes + run.streamed_miss_bytes == run.traffic_bytes

    def test_ideal_time_formula(self):
        run = self.make_run()
        platform = scaled_platform("test")
        assert run.ideal_seconds == pytest.approx(
            ideal_time_seconds(run.compulsory_bytes, platform)
        )

    def test_line_size_mismatch_rejected(self):
        import dataclasses

        rng = np.random.default_rng(1)
        coo = COOMatrix(64, 64, rng.integers(0, 64, 256), rng.integers(0, 64, 256))
        trace = spmv_csr_trace(coo_to_csr(coo), line_bytes=128)
        with pytest.raises(ValidationError):
            model_run(trace, scaled_platform("test"))

    def test_bad_policy_rejected(self):
        rng = np.random.default_rng(2)
        coo = COOMatrix(64, 64, rng.integers(0, 64, 128), rng.integers(0, 64, 128))
        trace = spmv_csr_trace(coo_to_csr(coo))
        with pytest.raises(ValidationError):
            model_run(trace, scaled_platform("test"), policy="fifo")

    def test_belady_never_slower(self):
        rng = np.random.default_rng(3)
        coo = COOMatrix(512, 512, rng.integers(0, 512, 4096), rng.integers(0, 512, 4096))
        trace = spmv_csr_trace(coo_to_csr(coo))
        platform = scaled_platform("test")
        lru = model_run(trace, platform, policy="lru")
        opt = model_run(trace, platform, policy="belady")
        assert opt.normalized_traffic <= lru.normalized_traffic + 1e-12


class TestAmortization:
    def test_basic(self):
        assert amortization_iterations(10.0, 2.0, 1.0) == pytest.approx(10.0)

    def test_no_improvement_is_infinite(self):
        assert math.isinf(amortization_iterations(10.0, 1.0, 1.0))
        assert math.isinf(amortization_iterations(10.0, 1.0, 2.0))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            amortization_iterations(-1.0, 2.0, 1.0)


class TestBoundedMemory:
    def test_lru_model_run_never_holds_the_whole_spgemm_trace(self, monkeypatch):
        """With 16K-access blocks, simulating test-rmat's SpGEMM trace
        allocates less than half of what the materialized trace would
        take (8 bytes per access).  Building the whole trace before
        simulating it peaks at about 4x the trace."""
        monkeypatch.setattr(kernel_traces, "BLOCK_ACCESSES", 1 << 14)
        platform = scaled_platform("test")
        trace = KernelSpec.parse("spgemm-csr").build_trace(
            load_graph("test-rmat").adjacency, platform
        )
        tracemalloc.start()
        try:
            run = model_run(trace, platform, policy="lru")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * run.stats.accesses

    def test_lru_engine_peak_on_one_block_stays_at_the_dict_loops(self):
        """A 300K-access random trace on 16 x 16 collapses to ~300K runs
        in one block.  The per-set dict loop this engine replaced peaked
        at 7.75x the trace's bytes, all of it in bucketing; the reuse
        windows must stay within that plus a 3% margin, so their per-run
        temporaries never set the peak."""
        trace = np.random.default_rng(3).integers(0, 1 << 16, size=300_000)
        config = CacheConfig(capacity_bytes=16 * 16 * 32, line_bytes=32, ways=16)
        tracemalloc.start()
        try:
            simulate_lru_fast(trace, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.03 * 7.75 * trace.nbytes
