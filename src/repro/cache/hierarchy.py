"""Two-level (L1 + L2) cache hierarchy simulation.

Rabbit Order's stated design goal is to map *hierarchical* communities
onto the multi-level cache hierarchy: innermost communities to the
small fast cache, outer communities to the larger one (paper Section
V-A).  The single-level simulator cannot observe that property; this
module simulates an inclusive two-level LRU hierarchy so the
hierarchy-mapping claim becomes measurable (see
``repro.experiments.hierarchy_ablation``).

L2 only ever sees L1's misses, in trace order, so each level is one run
of the bucketed LRU engine (:mod:`repro.cache.fast.lru`): L1 over the
trace, L2 over the accesses L1 missed.  The per-access two-level loop
this replaced is the oracle in ``tests/oracles/cache.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.fast.lru import lru_replay
from repro.cache.stats import CacheStats
from repro.errors import ValidationError


@dataclass
class HierarchyStats:
    """Per-level statistics of a two-level simulation.

    ``l1`` counts every trace access; ``l2`` only sees L1 misses, so
    ``l2.accesses == l1.misses``.  DRAM traffic is ``l2.traffic_bytes``.
    """

    l1: CacheStats
    l2: CacheStats

    @property
    def l1_hit_rate(self) -> float:
        return self.l1.hit_rate

    @property
    def l2_hit_rate(self) -> float:
        return self.l2.hit_rate

    @property
    def dram_traffic_bytes(self) -> int:
        return self.l2.traffic_bytes

    def check_consistency(self) -> None:
        self.l1.check_consistency()
        self.l2.check_consistency()
        if self.l2.accesses != self.l1.misses:
            raise AssertionError(
                f"L2 accesses ({self.l2.accesses}) != L1 misses ({self.l1.misses})"
            )


def simulate_hierarchy(
    trace: np.ndarray,
    l1_config: CacheConfig,
    l2_config: CacheConfig,
) -> HierarchyStats:
    """Simulate an inclusive L1 -> L2 LRU hierarchy over ``trace``.

    Both levels must share a line size (refills are line-granular).
    Inclusive means every L1 insert also touches L2; L2 evictions do
    not back-invalidate L1 (the common GPU-L1/L2 arrangement, where L1
    is small enough that stale lines age out quickly).
    """
    if l1_config.line_bytes != l2_config.line_bytes:
        raise ValidationError(
            f"line sizes differ: L1 {l1_config.line_bytes} vs L2 {l2_config.line_bytes}"
        )
    if l1_config.capacity_bytes > l2_config.capacity_bytes:
        raise ValidationError(
            "L1 must not be larger than L2 "
            f"({l1_config.capacity_bytes} > {l2_config.capacity_bytes})"
        )
    trace = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    l1, l1_misses = lru_replay(trace, l1_config)
    # L2 sees L1's misses in trace order; the engine reports them
    # grouped by set.
    l2, _ = lru_replay(trace[np.sort(l1_misses)], l2_config)
    stats = HierarchyStats(l1=l1, l2=l2)
    stats.check_consistency()
    return stats
