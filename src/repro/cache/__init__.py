"""Trace-driven cache simulator (paper Section VI-B).

The paper validates its analysis with a simulator of the A6000's L2
("within 4% of the real-GPU numbers"); this package is that simulator.
It consumes line-granular access traces (see :mod:`repro.trace`),
models a set-associative cache with LRU or Belady (optimal)
replacement, and reports hits/misses, DRAM traffic, per-region miss
splits, and dead-line statistics (Table III).

This module is the public simulator surface:

* :func:`simulate` — the single entry point; runs the numpy-vectorized
  engines in :mod:`repro.cache.fast`, except that Belady on a cache
  with few sets or a short trace takes its faster per-access loop.
* :class:`CacheConfig` / :class:`CacheStats` — geometry in, counters
  out.

The differential tests compare the vectorized engines against
per-access loops: LRU's lives in ``tests/oracles/cache.py``, and
Belady's in :mod:`repro.cache.belady`, since :func:`simulate` runs it on
small inputs.
"""

from repro.cache.config import CacheConfig
from repro.cache.dispatch import POLICIES, simulate
from repro.cache.lru import classify_misses, compulsory_misses
from repro.cache.belady import next_use_index
from repro.cache.hierarchy import HierarchyStats, simulate_hierarchy
from repro.cache.stats import CacheStats

__all__ = [
    "CacheConfig",
    "CacheStats",
    "HierarchyStats",
    "POLICIES",
    "classify_misses",
    "compulsory_misses",
    "next_use_index",
    "simulate",
    "simulate_hierarchy",
]
