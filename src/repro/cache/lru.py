"""Set-associative LRU cache simulation.

Models the A6000 L2 ("an L2 cache with LRU replacement policy (which
closely models A6000's L2 cache)", paper Section VI-B).  The simulator
consumes a line-granular trace (array of line IDs) and returns
:class:`~repro.cache.stats.CacheStats` including dead-line counters.

Implementation notes: each cache set is an ``OrderedDict`` used as an
LRU list (``move_to_end`` on hit, ``popitem(last=False)`` to evict),
whose values record whether the resident line was ever re-referenced —
the dead-line predicate of paper Table III.  The trace is walked in
chunks converted via ``tolist`` so the hot loop handles native ints.

This per-access loop is the oracle for the bucketed engine in
:mod:`repro.cache.fast.lru`, which :func:`repro.cache.simulate` runs;
only the differential tests and ``repro bench-sim`` call it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats

#: (region name, first line id, one-past-last line id)
RegionBounds = Sequence[Tuple[str, int, int]]

_CHUNK = 1 << 20


def _simulate_lru(
    trace: np.ndarray,
    config: CacheConfig,
    regions: Optional[RegionBounds] = None,
) -> CacheStats:
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


def classify_misses(
    trace: np.ndarray,
    miss_positions: Sequence[int],
    regions: Optional[RegionBounds],
) -> Dict[str, int]:
    """Split miss counts by address region.

    Regions are half-open line-ID ranges; lines outside every region
    are reported under ``"other"``.
    """
    if not regions:
        return {}
    positions = np.asarray(miss_positions, dtype=np.int64)
    miss_lines = trace[positions] if positions.size else np.empty(0, dtype=np.int64)
    result: Dict[str, int] = {}
    claimed = np.zeros(miss_lines.size, dtype=bool)
    for name, lo, hi in regions:
        inside = (miss_lines >= lo) & (miss_lines < hi)
        result[name] = int(inside.sum())
        claimed |= inside
    unclaimed = int((~claimed).sum())
    if unclaimed:
        result["other"] = unclaimed
    return result


def compulsory_misses(trace: np.ndarray) -> int:
    """Distinct lines in the trace — the compulsory-miss floor.

    Marks a boolean table over ``[min, max]``; when that span is much
    larger than the trace (sparse address spaces) it counts the
    distinct values of the sorted trace instead, with the same bound
    as :func:`repro.cache.fast.bucket.compact_line_ids`.
    """
    trace = np.asarray(trace, dtype=np.int64)
    if trace.size == 0:
        return 0
    # Neither branch uses np.unique: on NumPy 2.4 values-only np.unique
    # on integers measured ~50x slower than a mark table or a sort.
    lo = int(trace.min())
    span = int(trace.max()) - lo + 1
    if span <= max(1 << 20, 8 * trace.size):
        seen = np.zeros(span, dtype=bool)
        seen[trace - lo if lo else trace] = True
        return int(np.count_nonzero(seen))
    ordered = np.sort(trace)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
