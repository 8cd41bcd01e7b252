"""Set-associative LRU simulation over a bucketed trace.

The trace is grouped by cache set and collapsed into same-line runs
(:func:`repro.cache.fast.bucket.bucket_trace`), then replayed on one of
two schedules:

* **rounds** — the per-set replays advance in lockstep, one numpy step
  per round over all active sets.  State lives in flat
  ``(n_sets * ways)`` arrays: the resident line per way (``tags``), its
  last-touch round (``age``, ``-1`` for empty ways, which doubles as
  the fill-before-evict rule since ``argmin`` picks empty ways first)
  and a re-reference bitmap (``reused``) backing the dead-line counters
  of paper Table III.  Hits are detected through a presence table
  mapping line id to its way — each line belongs to exactly one set,
  so one gather replaces a ``ways``-wide tag compare.
* **serial** — each set's runs are replayed in a plain Python loop
  with a dict as the LRU list (insertion order = recency, values = the
  reused bit).  It costs per run rather than per round, so it wins
  when few sets carry the runs and the rounds are long and narrow.

:func:`lru_schedule` picks between them from the plan's width.  Both
produce counters bit-identical to the per-access ``OrderedDict`` oracle
in ``tests/oracles/cache.py`` (see
``tests/test_cache_fast_differential.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.fast.bucket import BucketPlan, bucket_trace, compact_line_ids
from repro.cache.lru import RegionBounds, classify_misses
from repro.cache.stats import CacheStats

#: Average runs per round below which the serial schedule beats the
#: rounds loop.  A round costs a fixed ~20 numpy calls however many sets
#: it touches, a serial run a few dict operations.
SERIAL_WIDTH = 64


def simulate_lru_fast(
    trace: np.ndarray,
    config: CacheConfig,
    regions: Optional[RegionBounds] = None,
) -> CacheStats:
    """Set-associative LRU over the bucketed trace."""
    return lru_replay(trace, config, regions)[0]


def lru_replay(
    trace: np.ndarray,
    config: CacheConfig,
    regions: Optional[RegionBounds] = None,
) -> Tuple[CacheStats, np.ndarray]:
    """:func:`simulate_lru_fast`'s stats and the trace positions that
    missed, grouped by cache set rather than in trace order."""
    trace = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    if trace.size == 0:
        miss_positions = np.empty(0, dtype=np.int64)
        hits = evictions = dead_evictions = dead_at_end = 0
    else:
        plan = bucket_trace(trace, config.n_sets)
        if lru_schedule(plan) == "serial":
            result = _lru_serial(plan, config.ways)
        else:
            result = _lru_rounds(plan, config.n_sets, config.ways)
        evictions, dead_evictions, dead_at_end, miss_positions = result
        hits = int(trace.size) - int(miss_positions.size)
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
    return stats, miss_positions


def lru_schedule(plan: BucketPlan) -> str:
    """``"serial"`` for narrow plans, ``"rounds"`` for wide ones."""
    return "serial" if plan.lines.size < SERIAL_WIDTH * plan.rounds else "rounds"


def _lru_serial(plan: BucketPlan, ways: int):
    missed = bytearray(plan.lines.size)
    evictions = 0
    dead_evictions = 0
    dead_at_end = 0
    ends = np.append(plan.set_offsets[1:], plan.lines.size)
    for lo, hi in zip(plan.set_offsets.tolist(), ends.tolist()):
        if lo == hi:
            continue
        resident: dict = {}
        runs = zip(
            range(lo, hi), plan.lines[lo:hi].tolist(), plan.multi[lo:hi].tolist()
        )
        for i, line, multi in runs:
            if line in resident:
                del resident[line]
                resident[line] = True
            else:
                missed[i] = 1
                resident[line] = multi
                if len(resident) > ways:
                    evictions += 1
                    if not resident.pop(next(iter(resident))):
                        dead_evictions += 1
        dead_at_end += sum(not reused for reused in resident.values())
    miss_positions = plan.pos_first[np.frombuffer(missed, dtype=bool)]
    return evictions, dead_evictions, dead_at_end, miss_positions


def _lru_rounds(plan: BucketPlan, n_sets: int, ways: int):
    ids, table_size = compact_line_ids(plan.lines)
    pos_first = plan.pos_first
    multi = plan.multi

    tags = np.full(n_sets * ways, -1, dtype=np.int64)
    age = np.full(n_sets * ways, -1, dtype=np.int64)
    reused = np.zeros(n_sets * ways, dtype=bool)
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
        way = way_of_line[line]
        hit = way >= 0
        base = row_base[:n_active]
        flat_hit = base[hit] + way[hit]
        age[flat_hit] = r
        reused[flat_hit] = True
        miss_row = np.nonzero(~hit)[0]
        if miss_row.size:
            miss_idx = idx[miss_row]
            miss_positions[n_miss:n_miss + miss_row.size] = pos_first[miss_idx]
            n_miss += miss_row.size
            miss_base = base[miss_row]
            victim = np.argmin(age[miss_base[:, None] + way_range], axis=1)
            flat_victim = miss_base + victim
            old_tag = tags[flat_victim]
            evicted = age[flat_victim] >= 0
            n_evicted = int(np.count_nonzero(evicted))
            if n_evicted:
                evictions += n_evicted
                dead_evictions += int(
                    np.count_nonzero(evicted & ~reused[flat_victim])
                )
                way_of_line[old_tag[evicted]] = -1
            miss_line = line[miss_row]
            tags[flat_victim] = miss_line
            age[flat_victim] = r
            reused[flat_victim] = multi[miss_idx]
            way_of_line[miss_line] = victim
    dead_at_end = int(np.count_nonzero((age >= 0) & ~reused))
    return evictions, dead_evictions, dead_at_end, miss_positions[:n_miss]
