"""Shared experiment machinery.

The experiment drivers all need the same pipeline:

    corpus matrix -> reordering permutation -> permuted matrix ->
    kernel trace -> cache simulation -> performance model

plus the matrix-structure metrics (insularity, skew, community stats)
computed from the RABBIT detection.  Both stages are deterministic, so
the runner keeps their results in the content-addressed result store
(:mod:`repro.store`): a cell's ``eval`` entry is keyed by the matrix's
digest (its structure, plus its values when they are not all 1), the
technique, kernel, policy, platform, schedule and mask, so a matrix
whose recipe or generator changed misses instead of reading the old
matrix's numbers.  Permutations are stored too
(``perm``), with their measured reordering seconds in a ``time`` entry
of their own, the only wall-clock value stored.  Keying a corpus
matrix means generating it once per runner.  Delete the cache
directory to force recomputation.  Detection runs once per loaded
graph: the metrics, the insular mask, RABBIT and RABBIT++ all read
:func:`repro.community.rabbit.detect`.

The store root can be redirected without code changes by setting the
``REPRO_CACHE_DIR`` environment variable (useful for CI and multi-run
jobs); an explicit ``cache_dir=`` argument still wins, and
``DEFAULT_CACHE_DIR`` (``./.repro_cache``) is the fallback.

Every pipeline stage runs inside an observability span (``load``,
``reorder``, ``permute``, ``mask``, ``trace``, ``cache-sim``,
``perf-model``, and the store's ``memo-load`` / ``memo-store``) and
store effectiveness is exported as ``store.<kind>.hit`` /
``store.<kind>.miss`` counters — see :mod:`repro.obs` and the
``repro profile`` / ``repro cache-stats`` commands.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, Optional

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
from repro.obs import get_obs
from repro.reorder.base import TimedReordering, reorder_with_timing
from repro.reorder.registry import make_technique
from repro.sparse.mask import restrict_to_nodes
from repro.sparse.permute import permute_symmetric
from repro.store import (
    PermutationText,
    ResultStore,
    eval_key,
    eval_payload,
    matrix_digest,
    metrics_key,
    perm_key,
    perm_payload,
)
from repro.trace.kernelspec import KernelSpec

KERNELS = ("spmv-csr", "spmv-coo", "spmm-csr-4", "spmm-csr-256", "spgemm-csr")
MASKS = ("none", "insular")

#: Default store directory *name*, resolved against the working
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
    """Pipeline executor backed by the content-addressed result store."""

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
        self.store = ResultStore(self.cache_dir)
        self.use_cache = bool(use_cache)
        self.schedule = schedule
        #: perm key -> permutation and its seconds, recalled in-process.
        self._permutations: Dict[str, TimedReordering] = {}
        self._graphs: Dict[str, Graph] = {}
        self._digests: Dict[str, str] = {}

    # -- corpus ---------------------------------------------------------

    def matrices(self) -> "list[str]":
        return corpus_names(self.profile)

    def graph(self, matrix: str) -> Graph:
        if matrix not in self._graphs:
            with get_obs().span("load", matrix=matrix):
                self._graphs[matrix] = load_graph(matrix)
        return self._graphs[matrix]

    def add_graph(self, name: str, graph: Graph) -> None:
        """Run a generated, non-corpus graph under ``name`` (Fig. 9's
        size sweep).  The name never enters a store key; the graph's
        :func:`~repro.store.matrix_digest` does."""
        self._graphs[name] = graph
        self._digests.pop(name, None)

    def digest(self, matrix: str) -> str:
        """Matrix digest of ``matrix``: the root of all its store keys."""
        if matrix not in self._digests:
            self._digests[matrix] = matrix_digest(self.graph(matrix).adjacency)
        return self._digests[matrix]

    # -- permutations ---------------------------------------------------

    def permutation(self, matrix: str, technique: str) -> TimedReordering:
        """Compute (or recall) the permutation and its wall time.

        A stored permutation is used only together with its ``time``
        entry; when either is missing the technique reruns and both
        entries are written.
        """
        key = perm_key(self.digest(matrix), technique)
        timed = self._permutations.get(key)
        if timed is None:
            stored = self._get("perm", key)
            timing = self._get("time", key) if stored is not None else None
            if timing is not None:
                timed = TimedReordering(
                    technique,
                    np.asarray(PermutationText(stored["permutation"]), dtype=np.int64),
                    float(timing["seconds"]),
                )
            else:
                timed = reorder_with_timing(make_technique(technique), self.graph(matrix))
                self._put(
                    "perm",
                    key,
                    perm_payload(key, self.digest(matrix), technique, timed.permutation),
                )
                self._put("time", key, {"perm_key": key, "seconds": timed.seconds})
            self._permutations[key] = timed
        return timed

    def reorder_seconds(self, matrix: str, technique: str) -> float:
        """Pre-processing time; prefers the persisted measurement, so a
        stored cell never reruns its technique just to time it."""
        key = perm_key(self.digest(matrix), technique)
        if key not in self._permutations:
            timing = self._get("time", key)
            if timing is not None:
                return float(timing["seconds"])
        return self.permutation(matrix, technique).seconds

    # -- metrics --------------------------------------------------------

    def matrix_metrics(self, matrix: str) -> MatrixMetrics:
        """Insularity/skew/community statistics of the graph's shared detection."""
        key = metrics_key(self.digest(matrix))
        payload = self._get("metrics", key)
        if payload is not None:
            return MatrixMetrics(matrix=matrix, **payload)
        graph = self.graph(matrix)
        with get_obs().span("metrics", matrix=matrix):
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
        payload = metrics.to_json()
        del payload["matrix"]
        self._put("metrics", key, payload)
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
        key = self._eval_key(matrix, technique, kernel, policy, mask)
        payload = self._get("eval", key)
        if payload is None:
            payload = self._simulate(matrix, technique, kernel, policy, mask, key)
        return RunRecord(
            matrix=matrix,
            technique=technique,
            kernel=kernel,
            policy=policy,
            mask=mask,
            platform=payload["platform"],
            reorder_seconds=self.reorder_seconds(matrix, technique),
            **payload["model"],
        )

    def _simulate(
        self, matrix: str, technique: str, kernel: str, policy: str, mask: str, key: str
    ) -> Dict[str, object]:
        """Run the pipeline for one cell and store its ``eval`` entry."""
        obs = get_obs()
        timed = self.permutation(matrix, technique)
        graph = self.graph(matrix)
        with obs.span("permute", matrix=matrix, technique=technique):
            permuted = permute_symmetric(graph.adjacency, timed.permutation)
        if mask == "insular":
            with obs.span("mask", matrix=matrix):
                permuted = self._apply_insular_mask(graph, permuted, timed.permutation)
        with obs.span("trace", matrix=matrix, kernel=kernel):
            trace = self._build_trace(permuted, kernel)
        platform = self._platform_for_kernel(kernel)
        run = model_run(trace, platform, policy=policy)
        payload = eval_payload(
            key,
            perm_key(self.digest(matrix), technique),
            kernel,
            policy,
            platform.name,
            self.schedule,
            mask,
            run,
        )
        self._put("eval", key, payload)
        return payload

    @staticmethod
    def _apply_insular_mask(graph: Graph, permuted, permutation: np.ndarray):
        """Keep only non-zeros connecting to insular nodes (Figure 6)."""
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
        (the paper's capacity-starved SpMM regime; see DESIGN.md).  A
        factor of 1 is the base platform under its own name, so an
        unscaled SpMM cell shares its eval key with the serve tier.
        """
        spec = KernelSpec.coerce(kernel)
        factor = spec.k // 16 if spec.kind == "spmm-csr" else 1
        if factor <= 1:
            return self.platform
        return dataclasses.replace(
            self.platform,
            name=f"{self.platform.name}-x{factor}",
            l2_capacity_bytes=self.platform.l2_capacity_bytes * factor,
        )

    def _build_trace(self, permuted, kernel: str):
        return KernelSpec.coerce(kernel).build_trace(
            permuted, self.platform, schedule=self.schedule
        )

    # -- store plumbing --------------------------------------------------

    def run_cache_path(
        self,
        matrix: str,
        technique: str,
        kernel: str = "spmv-csr",
        policy: str = "lru",
        mask: str = "none",
    ) -> str:
        """Store entry of one simulated cell (shared with repro.parallel)."""
        return self.store.path(
            "eval", self._eval_key(matrix, technique, kernel, policy, mask)
        )

    def metrics_cache_path(self, matrix: str) -> str:
        """Store entry of one matrix's structure metrics."""
        return self.store.path("metrics", metrics_key(self.digest(matrix)))

    def _eval_key(
        self, matrix: str, technique: str, kernel: str, policy: str, mask: str
    ) -> str:
        return eval_key(
            perm_key(self.digest(matrix), technique),
            kernel,
            policy,
            self._platform_for_kernel(kernel).name,
            self.schedule,
            mask,
        )

    def _get(self, kind: str, key: str) -> Optional[Dict[str, object]]:
        return self.store.get(kind, key) if self.use_cache else None

    def _put(self, kind: str, key: str, payload: Dict[str, object]) -> None:
        if self.use_cache:
            self.store.put(kind, key, payload)
