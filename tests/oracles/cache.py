"""Cache-simulation oracles: per-access ``OrderedDict`` LRU loops.

:func:`simulate_lru` is the oracle for the bucketed engine in
:mod:`repro.cache.fast.lru`; :func:`simulate_hierarchy` is the oracle
for :func:`repro.cache.simulate_hierarchy`, which runs that engine once
per level.

Each cache set is an ``OrderedDict`` used as an LRU list
(``move_to_end`` on hit, ``popitem(last=False)`` to evict), whose
values record whether the resident line was ever re-referenced — the
dead-line predicate of paper Table III.  The trace is walked in chunks
converted via ``tolist`` so the hot loop handles native ints.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyStats
from repro.cache.lru import RegionBounds, classify_misses
from repro.cache.stats import CacheStats

_CHUNK = 1 << 20


def simulate_lru(
    trace: np.ndarray,
    config: CacheConfig,
    regions: Optional[RegionBounds] = None,
) -> CacheStats:
    """Set-associative LRU, one access at a time."""
    trace = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    n_sets = config.n_sets
    ways = config.ways
    sets: List[OrderedDict] = [OrderedDict() for _ in range(config.n_sets)]

    hits = 0
    evictions = 0
    dead_evictions = 0
    miss_positions: List[int] = []
    miss_append = miss_positions.append

    base = 0
    for start in range(0, trace.size, _CHUNK):
        chunk = trace[start: start + _CHUNK].tolist()
        for offset, line in enumerate(chunk):
            cache_set = sets[line % n_sets]
            if line in cache_set:
                cache_set[line] = True
                cache_set.move_to_end(line)
                hits += 1
            else:
                miss_append(base + offset)
                cache_set[line] = False
                if len(cache_set) > ways:
                    _, reused = cache_set.popitem(last=False)
                    evictions += 1
                    if not reused:
                        dead_evictions += 1
        base += len(chunk)

    dead_at_end = sum(
        1 for cache_set in sets for reused in cache_set.values() if not reused
    )
    stats = CacheStats(
        accesses=int(trace.size),
        hits=hits,
        misses=len(miss_positions),
        evictions=evictions,
        dead_evictions=dead_evictions,
        dead_at_end=dead_at_end,
        line_bytes=config.line_bytes,
        region_misses=classify_misses(trace, miss_positions, regions),
    )
    stats.check_consistency()
    return stats


def simulate_hierarchy(
    trace: np.ndarray,
    l1_config: CacheConfig,
    l2_config: CacheConfig,
) -> HierarchyStats:
    """L1 -> L2 LRU hierarchy, one access at a time: an L1 miss falls
    through to L2 before the next access is replayed."""
    trace = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))

    l1_sets: List[OrderedDict] = [OrderedDict() for _ in range(l1_config.n_sets)]
    l2_sets: List[OrderedDict] = [OrderedDict() for _ in range(l2_config.n_sets)]
    l1_sets_count, l1_ways = l1_config.n_sets, l1_config.ways
    l2_sets_count, l2_ways = l2_config.n_sets, l2_config.ways

    l1_hits = l1_evict = l1_dead = 0
    l2_hits = l2_miss = l2_evict = l2_dead = 0
    l1_miss = 0

    for start in range(0, trace.size, _CHUNK):
        for line in trace[start: start + _CHUNK].tolist():
            l1_set = l1_sets[line % l1_sets_count]
            if line in l1_set:
                l1_set[line] = True
                l1_set.move_to_end(line)
                l1_hits += 1
                continue
            l1_miss += 1
            l1_set[line] = False
            if len(l1_set) > l1_ways:
                _, reused = l1_set.popitem(last=False)
                l1_evict += 1
                if not reused:
                    l1_dead += 1
            # L1 miss falls through to L2.
            l2_set = l2_sets[line % l2_sets_count]
            if line in l2_set:
                l2_set[line] = True
                l2_set.move_to_end(line)
                l2_hits += 1
            else:
                l2_miss += 1
                l2_set[line] = False
                if len(l2_set) > l2_ways:
                    _, reused = l2_set.popitem(last=False)
                    l2_evict += 1
                    if not reused:
                        l2_dead += 1

    l1_dead_end = sum(
        1 for s in l1_sets for reused in s.values() if not reused
    )
    l2_dead_end = sum(
        1 for s in l2_sets for reused in s.values() if not reused
    )
    stats = HierarchyStats(
        l1=CacheStats(
            accesses=int(trace.size),
            hits=l1_hits,
            misses=l1_miss,
            evictions=l1_evict,
            dead_evictions=l1_dead,
            dead_at_end=l1_dead_end,
            line_bytes=l1_config.line_bytes,
        ),
        l2=CacheStats(
            accesses=l1_miss,
            hits=l2_hits,
            misses=l2_miss,
            evictions=l2_evict,
            dead_evictions=l2_dead,
            dead_at_end=l2_dead_end,
            line_bytes=l2_config.line_bytes,
        ),
    )
    stats.check_consistency()
    return stats
