"""Vectorized Belady (OPT) replacement simulation.

Replays the bucketed trace (see :mod:`repro.cache.fast.bucket`) with
per-way next-use stamps instead of ages: the victim in a full set is
the resident line with the farthest next use, ties broken toward the
smallest line id — exactly the order the reference lazy-heap pops
``(-next_use, line)`` tuples.  The incoming line itself competes for
eviction (Belady bypass): a single-access run is bypassed when its
next use is strictly farthest, or ties while its line id sorts first.
Runs of length > 1 are never bypassed — their in-run re-reference is
the nearest possible future in the set.

Produces counters bit-identical to
:func:`repro.cache.belady._simulate_belady`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.belady import next_use_index
from repro.cache.config import CacheConfig
from repro.cache.fast.bucket import bucket_trace, compact_line_ids
from repro.cache.lru import RegionBounds, classify_misses
from repro.cache.stats import CacheStats

_INT64_MAX = np.iinfo(np.int64).max


def simulate_belady_fast(
    trace: np.ndarray,
    config: CacheConfig,
    regions: Optional[RegionBounds] = None,
) -> CacheStats:
    """Vectorized equivalent of :func:`repro.cache.belady._simulate_belady`."""
    trace = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    if trace.size == 0:
        miss_positions = np.empty(0, dtype=np.int64)
        hits = evictions = dead_evictions = dead_at_end = 0
    else:
        hits, evictions, dead_evictions, dead_at_end, miss_positions = _belady_core(
            trace, config.n_sets, config.ways
        )
    stats = CacheStats(
        accesses=int(trace.size),
        hits=hits,
        misses=int(miss_positions.size),
        evictions=evictions,
        dead_evictions=dead_evictions,
        dead_at_end=dead_at_end,
        line_bytes=config.line_bytes,
        region_misses=classify_misses(trace, miss_positions, regions),
    )
    stats.check_consistency()
    return stats


def _belady_core(trace: np.ndarray, n_sets: int, ways: int):
    plan = bucket_trace(trace, n_sets)
    ids, table_size = compact_line_ids(plan.lines)
    # Next use *after* a collapsed run is the next use of its last
    # access; the in-run accesses are guaranteed hits either way.
    next_use = next_use_index(trace)
    run_future = next_use[plan.pos_last]
    pos_first = plan.pos_first
    multi = plan.multi

    tags = np.full(n_sets * ways, -1, dtype=np.int64)
    way_future = np.full(n_sets * ways, -1, dtype=np.int64)
    reused = np.zeros(n_sets * ways, dtype=bool)
    occupancy = np.zeros(n_sets, dtype=np.int64)
    way_of_line = np.full(table_size, -1, dtype=np.int64)
    col_starts = plan.set_offsets[plan.set_rank]
    row_base = plan.set_rank * ways
    way_range = np.arange(ways)

    miss_positions = np.empty(ids.size, dtype=np.int64)
    n_miss = 0
    evictions = 0
    dead_evictions = 0
    for r in range(plan.rounds):
        n_active = int(plan.active[r + 1])
        idx = col_starts[:n_active] + r
        line = ids[idx]
        future = run_future[idx]
        way = way_of_line[line]
        hit = way >= 0
        base = row_base[:n_active]
        flat_hit = base[hit] + way[hit]
        way_future[flat_hit] = future[hit]
        reused[flat_hit] = True
        miss_row = np.nonzero(~hit)[0]
        if not miss_row.size:
            continue
        miss_idx = idx[miss_row]
        miss_positions[n_miss:n_miss + miss_row.size] = pos_first[miss_idx]
        n_miss += miss_row.size
        miss_base = base[miss_row]
        miss_sets = plan.set_rank[:n_active][miss_row]
        occupied = occupancy[miss_sets]
        filling = occupied < ways
        if filling.any():
            fill_row = np.nonzero(filling)[0]
            fill_way = occupied[fill_row]
            flat_fill = miss_base[fill_row] + fill_way
            fill_line = line[miss_row[fill_row]]
            tags[flat_fill] = fill_line
            way_future[flat_fill] = future[miss_row[fill_row]]
            reused[flat_fill] = multi[miss_idx[fill_row]]
            way_of_line[fill_line] = fill_way
            occupancy[miss_sets[fill_row]] += 1
        full_row = np.nonzero(~filling)[0]
        if not full_row.size:
            continue
        contender = miss_row[full_row]
        full_base = miss_base[full_row]
        block = full_base[:, None] + way_range
        futures = way_future[block]
        farthest = futures.max(axis=1)
        candidate_tags = np.where(
            futures == farthest[:, None], tags[block], _INT64_MAX
        )
        victim = candidate_tags.argmin(axis=1)
        flat_victim = full_base + victim
        future_in = future[contender]
        line_in = line[contender]
        tag_victim = tags[flat_victim]
        single = ~multi[idx[contender]]
        bypass = single & (
            (future_in > farthest)
            | ((future_in == farthest) & (line_in < tag_victim))
        )
        evictions += full_row.size
        # A bypassed insertion is evicted immediately, never reused.
        dead_evictions += int(np.count_nonzero(bypass))
        replace = np.nonzero(~bypass)[0]
        if replace.size:
            flat_replace = flat_victim[replace]
            dead_evictions += int(np.count_nonzero(~reused[flat_replace]))
            way_of_line[tags[flat_replace]] = -1
            tags[flat_replace] = line_in[replace]
            way_future[flat_replace] = future_in[replace]
            reused[flat_replace] = multi[idx[contender[replace]]]
            way_of_line[line_in[replace]] = victim[replace]
    dead_at_end = int(np.count_nonzero((tags >= 0) & ~reused))
    return (
        int(trace.size) - n_miss,
        evictions,
        dead_evictions,
        dead_at_end,
        miss_positions[:n_miss],
    )
