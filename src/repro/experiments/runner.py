"""Shared experiment machinery.

The experiment drivers all need the same pipeline:

    corpus matrix -> reordering permutation -> permuted matrix ->
    kernel trace -> cache simulation -> performance model

plus the matrix-structure metrics (insularity, skew, community stats)
computed from the RABBIT detection.  Both stages are deterministic, so
the runner memoizes simulation records and matrix metrics as JSON files
under ``.repro_cache/`` (permutations are additionally memoized
in-process).  Delete the cache directory to force recomputation.
Detection runs once per loaded graph: the metrics, the insular mask,
RABBIT and RABBIT++ all read :func:`repro.community.rabbit.detect`.

The memo directory can be redirected without code changes by setting
the ``REPRO_CACHE_DIR`` environment variable (useful for CI and
multi-run jobs); an explicit ``cache_dir=`` argument still wins, and
``DEFAULT_CACHE_DIR`` (``./.repro_cache``) is the fallback.

Every pipeline stage runs inside an observability span (``load``,
``reorder``, ``permute``, ``mask``, ``trace``, ``cache-sim``,
``perf-model``, ``memo-load``, ``memo-store``) and memoization
effectiveness is exported as ``memo.<kind>.hit`` / ``memo.<kind>.miss``
counters — see :mod:`repro.obs` and the ``repro profile`` /
``repro cache-stats`` commands.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cache import POLICIES
from repro.community.modularity import modularity
from repro.community.rabbit import detect
from repro.errors import ValidationError
from repro.gpu.perf import model_run
from repro.gpu.specs import PlatformSpec, scaled_platform
from repro.graphs.corpus import corpus_names, load_graph
from repro.graphs.graph import Graph
from repro.metrics.community_stats import community_size_stats
from repro.metrics.insularity import insular_mask, insular_node_fraction, insularity
from repro.metrics.skew import degree_skew
from repro.obs import get_obs, logger
from repro.resilience.faults import fault_point
from repro.resilience.integrity import (
    atomic_write_document,
    load_or_quarantine,
    wrap_payload,
)
from repro.reorder.base import TimedReordering, reorder_with_timing
from repro.reorder.registry import make_technique
from repro.sparse.mask import restrict_to_nodes
from repro.sparse.permute import permute_symmetric
from repro.trace.kernelspec import KernelSpec

KERNELS = ("spmv-csr", "spmv-coo", "spmm-csr-4", "spmm-csr-256", "spgemm-csr")
MASKS = ("none", "insular")

#: Default memo directory *name*, resolved against the working
#: directory at call time (not import time) by :func:`resolve_cache_dir`.
DEFAULT_CACHE_DIR = ".repro_cache"


def resolve_cache_dir(cache_dir: Optional[str] = None) -> str:
    """Explicit argument, else ``$REPRO_CACHE_DIR``, else the default.

    The default is resolved against the *current* working directory on
    every call, so a ``chdir`` after import (pytest tmp dirs, pool
    workers, long-lived services) does not silently pin the memo to the
    import-time directory.
    """
    if cache_dir is not None:
        return cache_dir
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.getcwd(), DEFAULT_CACHE_DIR)


@dataclass
class RunRecord:
    """Flattened, JSON-serializable outcome of one simulated run."""

    matrix: str
    technique: str
    kernel: str
    policy: str
    mask: str
    platform: str
    normalized_traffic: float
    normalized_runtime: float
    traffic_bytes: int
    compulsory_bytes: int
    modeled_seconds: float
    ideal_seconds: float
    hit_rate: float
    dead_line_fraction: float
    accesses: int
    misses: int
    reorder_seconds: float

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "RunRecord":
        return cls(**payload)  # type: ignore[arg-type]


@dataclass
class MatrixMetrics:
    """Structure metrics of one corpus matrix under RABBIT detection."""

    matrix: str
    n_nodes: int
    nnz: int
    avg_degree: float
    insularity: float
    insular_node_fraction: float
    skew: float
    modularity: float
    n_communities: int
    normalized_avg_community_size: float
    largest_community_fraction: float

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "MatrixMetrics":
        return cls(**payload)  # type: ignore[arg-type]


class ExperimentRunner:
    """Pipeline executor with on-disk memoization."""

    def __init__(
        self,
        profile: str = "full",
        platform: Optional[PlatformSpec] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        schedule: str = "sequential",
    ) -> None:
        self.profile = profile
        self.platform = platform if platform is not None else scaled_platform(profile)
        self.cache_dir = resolve_cache_dir(cache_dir)
        self.use_cache = bool(use_cache)
        self.schedule = schedule
        self._permutations: Dict[Tuple[str, str], TimedReordering] = {}
        self._graphs: Dict[str, Graph] = {}

    # -- corpus ---------------------------------------------------------

    def matrices(self) -> "list[str]":
        return corpus_names(self.profile)

    def graph(self, matrix: str) -> Graph:
        if matrix not in self._graphs:
            with get_obs().span("load", matrix=matrix):
                self._graphs[matrix] = load_graph(matrix)
        return self._graphs[matrix]

    # -- permutations ---------------------------------------------------

    def permutation(self, matrix: str, technique: str) -> TimedReordering:
        """Compute (or recall) the permutation and its wall time."""
        key = (matrix, technique)
        if key not in self._permutations:
            graph = self.graph(matrix)
            self._permutations[key] = reorder_with_timing(make_technique(technique), graph)
            self._store_reorder_time(matrix, technique, self._permutations[key].seconds)
        return self._permutations[key]

    def reorder_seconds(self, matrix: str, technique: str) -> float:
        """Pre-processing time; prefers the persisted measurement."""
        cached = self._load_reorder_time(matrix, technique)
        if cached is not None:
            return cached
        return self.permutation(matrix, technique).seconds

    # -- metrics --------------------------------------------------------

    def matrix_metrics(self, matrix: str) -> MatrixMetrics:
        """Insularity/skew/community statistics of the graph's shared detection."""
        obs = get_obs()
        path = self.metrics_cache_path(matrix)
        payload = self._load_payload(path, kind="metrics", matrix=matrix)
        if payload is not None:
            obs.counter("memo.metrics.hit")
            return MatrixMetrics.from_json(payload)
        obs.counter("memo.metrics.miss")
        graph = self.graph(matrix)
        with obs.span("metrics", matrix=matrix):
            assignment = detect(graph).assignment
            stats = community_size_stats(assignment)
            metrics = MatrixMetrics(
                matrix=matrix,
                n_nodes=graph.n_nodes,
                nnz=graph.adjacency.nnz,
                avg_degree=graph.average_degree(),
                insularity=insularity(graph, assignment),
                insular_node_fraction=insular_node_fraction(graph, assignment),
                skew=degree_skew(graph),
                modularity=modularity(graph, assignment),
                n_communities=stats.n_communities,
                normalized_avg_community_size=stats.normalized_average_size,
                largest_community_fraction=stats.largest_fraction,
            )
        self._write_json(path, metrics.to_json())
        return metrics

    # -- simulation -----------------------------------------------------

    def run(
        self,
        matrix: str,
        technique: str,
        kernel: str = "spmv-csr",
        policy: str = "lru",
        mask: str = "none",
    ) -> RunRecord:
        """Simulate one (matrix, technique, kernel, policy, mask) cell."""
        if kernel not in KERNELS:
            raise ValidationError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        if mask not in MASKS:
            raise ValidationError(f"mask must be one of {MASKS}, got {mask!r}")
        if policy not in POLICIES:
            raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
        obs = get_obs()
        cache_key = self.run_cache_path(matrix, technique, kernel, policy, mask)
        payload = self._load_payload(
            cache_key, kind="run", matrix=matrix, technique=technique
        )
        if payload is not None:
            obs.counter("memo.run.hit")
            logger.debug(
                "memo hit: %s/%s/%s/%s/%s", matrix, technique, kernel, policy, mask
            )
            return RunRecord.from_json(payload)

        obs.counter("memo.run.miss")
        timed = self.permutation(matrix, technique)
        graph = self.graph(matrix)
        with obs.span("permute", matrix=matrix, technique=technique):
            permuted = permute_symmetric(graph.adjacency, timed.permutation)
        if mask == "insular":
            with obs.span("mask", matrix=matrix):
                permuted = self._apply_insular_mask(
                    matrix, permuted, timed.permutation
                )
        with obs.span("trace", matrix=matrix, kernel=kernel):
            trace = self._build_trace(permuted, kernel)
        platform = self._platform_for_kernel(kernel)
        run = model_run(trace, platform, policy=policy)
        record = RunRecord(
            matrix=matrix,
            technique=technique,
            kernel=kernel,
            policy=policy,
            mask=mask,
            platform=platform.name,
            normalized_traffic=run.normalized_traffic,
            normalized_runtime=run.normalized_runtime,
            traffic_bytes=run.traffic_bytes,
            compulsory_bytes=run.compulsory_bytes,
            modeled_seconds=run.modeled_seconds,
            ideal_seconds=run.ideal_seconds,
            hit_rate=run.stats.hit_rate,
            dead_line_fraction=run.stats.dead_line_fraction,
            accesses=run.stats.accesses,
            misses=run.stats.misses,
            reorder_seconds=timed.seconds,
        )
        self._write_json(cache_key, record.to_json())
        return record

    def _apply_insular_mask(
        self, matrix: str, permuted, permutation: np.ndarray
    ):
        """Keep only non-zeros connecting to insular nodes (Figure 6)."""
        graph = self.graph(matrix)
        mask_original_ids = insular_mask(graph, detect(graph).assignment)
        mask_new_ids = np.zeros_like(mask_original_ids)
        mask_new_ids[permutation] = mask_original_ids
        return restrict_to_nodes(permuted, mask_new_ids, mode="either")

    def _platform_for_kernel(self, kernel: str) -> PlatformSpec:
        """Platform variant whose L2 matches the kernel's gather granule.

        The paper evaluates every kernel on the same physical 6 MB L2.
        For SpMV that cache holds ~1.5M 4-byte granules (up to 100% of
        the smallest corpus matrix), but for SpMM-CSR-256 it holds only
        ~6K 1-KiB B-rows — 0.4% of the nodes at best.  At 1/100 corpus
        scale a single scaled L2 cannot be in-regime for both granule
        sizes at once, so the modeled capacity is scaled by
        ``max(1, k // 16)``: larger caches for larger gathers, while
        keeping the B-row capacity a small fraction of the node count
        (the paper's capacity-starved SpMM regime; see DESIGN.md).
        """
        spec = KernelSpec.coerce(kernel)
        if spec.kind == "spmm-csr":
            factor = max(1, spec.k // 16)
            return dataclasses.replace(
                self.platform,
                name=f"{self.platform.name}-x{factor}",
                l2_capacity_bytes=self.platform.l2_capacity_bytes * factor,
            )
        return self.platform

    def _build_trace(self, permuted, kernel: str):
        return KernelSpec.coerce(kernel).build_trace(
            permuted, self.platform, schedule=self.schedule
        )

    # -- cache plumbing --------------------------------------------------

    def run_cache_path(
        self,
        matrix: str,
        technique: str,
        kernel: str = "spmv-csr",
        policy: str = "lru",
        mask: str = "none",
    ) -> str:
        """Memo file of one simulated cell (shared with repro.parallel)."""
        return self._cache_path(
            "run",
            f"{self.platform.name}|{self.schedule}|{matrix}|{technique}|{kernel}|{policy}|{mask}",
        )

    def metrics_cache_path(self, matrix: str) -> str:
        """Memo file of one matrix's structure metrics."""
        return self._cache_path("metrics", matrix)

    def _cache_path(self, kind: str, key: str) -> str:
        digest = hashlib.sha1(f"{kind}|{key}".encode("utf-8")).hexdigest()[:20]
        safe = key.replace("|", "_").replace("/", "-")[:80]
        return os.path.join(self.cache_dir, f"{kind}-{safe}-{digest}.json")

    def _write_json(self, path: str, payload: Dict[str, object]) -> None:
        """Persist one memo payload in a versioned checksum envelope.

        Reads verify the envelope (:meth:`_load_payload`); damaged or
        legacy files are quarantined and recomputed instead of crashing
        the sweep — see :mod:`repro.resilience.integrity`.  The write
        itself goes through :func:`atomic_write_document`, whose
        per-write unique temp names keep concurrent same-key writers
        (two serve threads completing the same computation) from
        tearing each other's files.
        """
        if not self.use_cache:
            return
        document = wrap_payload(payload)
        with get_obs().span("memo-store"):
            atomic_write_document(path, document)
        fault_point("memo.write", path=path)

    def _load_payload(
        self, path: str, kind: str = "", **tags: object
    ) -> Optional[Dict[str, object]]:
        """Verified memo payload, or ``None`` when absent or damaged.

        A file that fails its integrity check (truncated JSON, checksum
        or schema mismatch, legacy unversioned entry) is moved to
        ``<cache>/quarantine/`` and treated as a miss, so a corrupt
        cache degrades to recomputation instead of an exception.
        """
        if not self.use_cache or not os.path.exists(path):
            return None
        with get_obs().span("memo-load", kind=kind, **tags):
            return load_or_quarantine(path, cache_dir=self.cache_dir)

    def _reorder_time_path(self, matrix: str, technique: str) -> str:
        return self._cache_path("reorder-time", f"{matrix}|{technique}")

    def _store_reorder_time(self, matrix: str, technique: str, seconds: float) -> None:
        self._write_json(
            self._reorder_time_path(matrix, technique),
            {"matrix": matrix, "technique": technique, "seconds": seconds},
        )

    def _load_reorder_time(self, matrix: str, technique: str) -> Optional[float]:
        path = self._reorder_time_path(matrix, technique)
        payload = self._load_payload(path, kind="reorder-time", matrix=matrix)
        if payload is None:
            return None
        try:
            return float(payload["seconds"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            # Checksum-valid but structurally foreign (e.g. written by
            # a future payload layout): quarantine and re-measure.
            from repro.resilience.integrity import quarantine_file

            quarantine_file(path, cache_dir=self.cache_dir, reason="bad payload shape")
            return None
