"""Trace-driven cache simulator (paper Section VI-B).

The paper validates its analysis with a simulator of the A6000's L2
("within 4% of the real-GPU numbers"); this package is that simulator.
It consumes line-granular access traces (see :mod:`repro.trace`) —
one array, or a kernel trace's blocks on the LRU path — models a
set-associative cache with LRU or Belady (optimal) replacement, and
reports hits/misses, DRAM traffic, per-region miss splits, and
dead-line statistics (Table III).

This module is the public simulator surface:

* :func:`simulate` — the single entry point; runs the policy's
  bucketed engine in :mod:`repro.cache.fast`, one engine per policy.
* :class:`CacheConfig` / :class:`CacheStats` — geometry in, counters
  out.

The differential tests compare the bucketed engines against the
per-access LRU and Belady loops in ``tests/oracles/cache.py``.
"""

from repro.cache.config import CacheConfig
from repro.cache.dispatch import POLICIES, simulate
from repro.cache.lru import classify_misses, compulsory_misses
from repro.cache.hierarchy import HierarchyStats, simulate_hierarchy
from repro.cache.stats import CacheStats

__all__ = [
    "CacheConfig",
    "CacheStats",
    "HierarchyStats",
    "POLICIES",
    "classify_misses",
    "compulsory_misses",
    "simulate",
    "simulate_hierarchy",
]
