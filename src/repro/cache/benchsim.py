"""Fast-vs-oracle simulator micro-benchmark (``repro bench-sim``).

Builds a fixed, seeded benchmark workload — an RMAT graph traced with
the SpMV-CSR kernel against the *unscaled* A6000 L2 geometry (6 MB,
12288 sets, the configuration the paper simulates) — and times each
replacement policy on its vectorized engine and on its per-access
reference oracle, calling both directly.  Every fast run is also
checked for ``CacheStats`` equality against its reference run, so the
benchmark doubles as an end-to-end differential test on a realistic
trace.

The ``smoke`` variant (CI) shrinks the graph and the cache so the
whole comparison completes in seconds.  Results serialize to the
``BENCH_sim.json`` schema emitted by the benchmark harness
(``benchmarks/test_bench_sim.py``) and the ``--json`` CLI flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.belady import _simulate_belady
from repro.cache.config import CacheConfig
from repro.cache.dispatch import POLICIES
from repro.cache.fast import simulate_belady_fast, simulate_lru_fast
from repro.cache.lru import _simulate_lru
from repro.errors import ValidationError
from repro.obs import get_obs
from repro.trace.kernel_traces import KernelTrace
from repro.trace.kernelspec import KernelSpec

#: RMAT parameters of the two benchmark workloads.
BENCH_GRAPH = {"scale": 16, "edge_factor": 16, "seed": 7}
SMOKE_GRAPH = {"scale": 12, "edge_factor": 8, "seed": 7}

#: SpGEMM workloads use smaller seeded graphs: the Gustavson trace
#: length scales with the multiply's flop count (~nnz x average
#: degree), so an SpMV-sized RMAT would produce a trace two orders of
#: magnitude longer than the SpMV bench instead of a comparable one.
SPGEMM_BENCH_GRAPH = {"scale": 11, "edge_factor": 8, "seed": 7}
SPGEMM_SMOKE_GRAPH = {"scale": 9, "edge_factor": 8, "seed": 7}

#: Smoke cache: 256 KiB / 32 B lines / 16 ways -> 512 sets.
SMOKE_CACHE = {"capacity_bytes": 256 * 1024, "line_bytes": 32, "ways": 16}

#: (policy, impl) -> engine; ``impl`` names the BENCH row.
ENGINES = {
    ("lru", "reference"): _simulate_lru,
    ("lru", "fast"): simulate_lru_fast,
    ("belady", "reference"): _simulate_belady,
    ("belady", "fast"): simulate_belady_fast,
}


@dataclass(frozen=True)
class BenchResult:
    """One (policy, impl) timing."""

    policy: str
    impl: str
    seconds: float
    accesses_per_s: float

    def to_json(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "impl": self.impl,
            "seconds": self.seconds,
            "accesses_per_s": self.accesses_per_s,
        }


def build_bench_workload(
    smoke: bool = False, kernel: str = "spmv-csr"
) -> Tuple[KernelTrace, CacheConfig]:
    """The seeded benchmark trace and cache geometry for ``kernel``."""
    from repro.gpu.specs import A6000
    from repro.graphs.generators.powerlaw import rmat
    from repro.sparse.convert import coo_to_csr

    spec = KernelSpec.coerce(kernel)
    if spec.kind == "spgemm-csr":
        params = SPGEMM_SMOKE_GRAPH if smoke else SPGEMM_BENCH_GRAPH
    else:
        params = SMOKE_GRAPH if smoke else BENCH_GRAPH
    with get_obs().span("bench-sim-setup", kernel=spec.name, **params):
        coo = rmat(directed=False, **params)
        csr = coo_to_csr(coo)
        config = CacheConfig(**SMOKE_CACHE) if smoke else A6000.cache_config()
        trace = spec.build_trace(csr, line_bytes=config.line_bytes)
    return trace, config


def run_bench(
    trace: KernelTrace,
    config: CacheConfig,
    policies: Sequence[str] = POLICIES,
    repeats: int = 1,
    clock: Optional[Callable[[], float]] = None,
) -> Dict[str, object]:
    """Time reference vs fast on ``trace``; verify identical stats.

    Returns the ``BENCH_sim.json`` payload: per-(policy, impl) timings
    in accesses/sec, per-policy fast-over-reference speedups, and a
    ``stats_match`` flag (a mismatch raises instead — the benchmark
    must not report throughput for a wrong answer).
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    clock = clock or time.perf_counter
    n = int(trace.lines.size)
    results: List[BenchResult] = []
    speedups: Dict[str, float] = {}
    for policy in policies:
        by_impl = {}
        for impl in ("reference", "fast"):
            best = None
            stats = None
            for _ in range(repeats):
                start = clock()
                stats = ENGINES[policy, impl](trace.lines, config, trace.regions)
                elapsed = clock() - start
                best = elapsed if best is None else min(best, elapsed)
            by_impl[impl] = (best, stats)
            results.append(
                BenchResult(
                    policy=policy,
                    impl=impl,
                    seconds=best,
                    accesses_per_s=n / best if best > 0 else float("inf"),
                )
            )
        ref_seconds, ref_stats = by_impl["reference"]
        fast_seconds, fast_stats = by_impl["fast"]
        if ref_stats != fast_stats:
            raise AssertionError(
                f"fast {policy} stats diverge from reference on the bench "
                f"trace: {fast_stats!r} != {ref_stats!r}"
            )
        speedups[policy] = ref_seconds / fast_seconds if fast_seconds > 0 else float("inf")
    return {
        "workload": {
            "kernel": trace.kernel,
            "accesses": n,
            "n_rows": trace.n_rows,
            "nnz": trace.nnz,
            "capacity_bytes": config.capacity_bytes,
            "line_bytes": config.line_bytes,
            "ways": config.ways,
            "n_sets": config.n_sets,
        },
        "results": [result.to_json() for result in results],
        "speedups": speedups,
        "stats_match": True,
    }
