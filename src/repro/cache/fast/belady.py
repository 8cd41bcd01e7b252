"""Belady (OPT) replacement simulation over a bucketed trace (paper Figure 8).

Belady's policy evicts the resident line whose next use lies farthest
in the future — an oracular upper bound on replacement quality.  The
paper uses it to quantify the remaining locality headroom after
reordering: the LRU-vs-Belady traffic gap is smallest (7.6%) for
RABBIT++ ordered matrices.

The trace is bucketed as for LRU (see :mod:`repro.cache.fast.bucket`),
and each run's next use is read off the plan (:func:`run_futures`):
the first position of its line's next run, which lies in the same set.
The plan then replays on one of two schedules, picked by its width
(:func:`schedule`):

* **serial** — each set's runs in a Python loop, with a dict of
  resident lines and a lazy max-heap of ``(-next_use, line)`` entries;
* **rounds** — the per-set replays advance in lockstep, one numpy step
  per round over all active sets, with per-way next-use stamps and a
  presence table mapping line id to its way.  Sets are ranked by
  descending run count, so round ``r`` touches the contiguous prefix of
  sets whose count exceeds ``r``.  A round costs a fixed ~20 numpy
  calls however few sets it touches, so narrow plans take the serial
  loop.

In both, the victim in a full set is the resident line with the
farthest next use, ties broken toward the smallest line id — the order
the heap pops its entries.  The incoming line itself competes for
eviction (Belady bypass): a single-access run is bypassed when its
next use is strictly farthest, or ties while its line id sorts first.
Runs of length > 1 are never bypassed — their in-run re-reference is
the nearest possible future in the set.

Both schedules produce counters bit-identical to the per-access
lazy-heap oracle in ``tests/oracles/cache.py`` (see
``tests/test_cache_fast_differential.py``).
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.fast.bucket import BucketPlan, bucket_trace, link_lines
from repro.cache.lru import RegionBounds, classify_misses
from repro.cache.stats import CacheStats

_INT64_MAX = np.iinfo(np.int64).max

#: The average runs per round below which the serial loop, at a few
#: heap operations per run, beats the rounds (crossover measured near
#: 64 on the profile L2s' spmv-csr traces).
SERIAL_WIDTH = 64


def simulate_belady_fast(
    trace: np.ndarray,
    config: CacheConfig,
    regions: Optional[RegionBounds] = None,
) -> CacheStats:
    """Set-associative Belady (OPT) over the bucketed trace."""
    trace = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    if trace.size == 0:
        miss_positions = np.empty(0, dtype=np.int64)
        evictions = dead_evictions = dead_at_end = 0
    else:
        plan = bucket_trace(trace, config.n_sets)
        run_future = run_futures(plan, int(trace.size))
        if schedule(plan) == "serial":
            result = _belady_serial(plan, run_future, config.ways)
        else:
            result = _belady_rounds(plan, run_future, config.n_sets, config.ways)
        evictions, dead_evictions, dead_at_end, miss_positions = result
    stats = CacheStats(
        accesses=int(trace.size),
        hits=int(trace.size) - int(miss_positions.size),
        misses=int(miss_positions.size),
        evictions=evictions,
        dead_evictions=dead_evictions,
        dead_at_end=dead_at_end,
        line_bytes=config.line_bytes,
        region_misses=classify_misses(trace, miss_positions, regions),
    )
    stats.check_consistency()
    return stats


def run_futures(plan: BucketPlan, n: int) -> np.ndarray:
    """Each run's next use: the first position of its line's next run,
    or ``n`` (past the trace's end) if it has none.

    The next access to a run's line after the run comes after another
    line in the same set ended the run, so it starts that line's next
    run there; the in-run accesses are guaranteed hits either way.
    """
    n_runs = plan.lines.size
    index = np.int32 if n_runs < 2**31 else np.int64
    pos, same = link_lines(plan.lines.astype(np.int64), index)
    future = np.full(n_runs, n, dtype=np.int64)
    future[pos[:-1][same]] = plan.pos_first[pos[1:][same]]
    return future


def schedule(plan: BucketPlan) -> str:
    """``"serial"`` or ``"rounds"``: the schedule ``plan`` replays on."""
    return "serial" if plan.lines.size < SERIAL_WIDTH * plan.rounds else "rounds"


def _belady_serial(plan: BucketPlan, run_future: np.ndarray, ways: int):
    missed = bytearray(plan.lines.size)
    evictions = 0
    dead_evictions = 0
    dead_at_end = 0
    # Hits leave stale heap entries behind; rebuilding from the residents
    # once the heap outgrows them keeps pops and pushes logarithmic in
    # ``ways`` rather than in the set's run count.
    heap_limit = 4 * ways
    ends = np.append(plan.set_offsets[1:], plan.lines.size)
    for lo, hi in zip(plan.set_offsets.tolist(), ends.tolist()):
        if lo == hi:
            continue
        resident: dict = {}  # line -> (next use, reused)
        heap: list = []  # (-next use, line), lazily invalidated
        runs = zip(
            range(lo, hi),
            plan.lines[lo:hi].tolist(),
            run_future[lo:hi].tolist(),
            plan.multi[lo:hi].tolist(),
        )
        for i, line, future, multi in runs:
            if line in resident:
                resident[line] = (future, True)
            else:
                missed[i] = 1
                if len(resident) == ways:
                    evictions += 1
                    if not multi:
                        # Belady bypass: the incoming line competes too.
                        resident[line] = (future, False)
                        heapq.heappush(heap, (-future, line))
                        dead_evictions += _evict_farthest(resident, heap)
                        continue
                    # The in-run re-reference is nearer than any
                    # resident's next use: evict, then insert.
                    dead_evictions += _evict_farthest(resident, heap)
                resident[line] = (future, multi)
            if len(heap) > heap_limit:
                heap = [(-f, other) for other, (f, _) in resident.items()]
                heapq.heapify(heap)
            else:
                heapq.heappush(heap, (-future, line))
        dead_at_end += sum(not reused for _, reused in resident.values())
    miss_positions = plan.pos_first[np.frombuffer(missed, dtype=bool)]
    return evictions, dead_evictions, dead_at_end, miss_positions


def _evict_farthest(resident: dict, heap: list) -> bool:
    """Evict the farthest-next-use resident line; True if it was dead.

    A popped entry is valid only when its line is still resident with
    the same next-use stamp.
    """
    while True:
        neg_future, line = heapq.heappop(heap)
        entry = resident.get(line)
        if entry is not None and entry[0] == -neg_future:
            del resident[line]
            return not entry[1]


def _belady_rounds(plan: BucketPlan, run_future: np.ndarray, n_sets: int, ways: int):
    ids, table_size = compact_line_ids(plan.lines)
    pos_first = plan.pos_first
    multi = plan.multi

    tags = np.full(n_sets * ways, -1, dtype=np.int64)
    way_future = np.full(n_sets * ways, -1, dtype=np.int64)
    reused = np.zeros(n_sets * ways, dtype=bool)
    occupancy = np.zeros(n_sets, dtype=np.int64)
    way_of_line = np.full(table_size, -1, dtype=np.int64)
    set_rank, active = round_order(plan)
    col_starts = plan.set_offsets[set_rank]
    row_base = set_rank * ways
    way_range = np.arange(ways)

    miss_positions = np.empty(ids.size, dtype=np.int64)
    n_miss = 0
    evictions = 0
    dead_evictions = 0
    for r in range(plan.rounds):
        n_active = int(active[r + 1])
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
        miss_sets = set_rank[:n_active][miss_row]
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
    return evictions, dead_evictions, dead_at_end, miss_positions[:n_miss]


def round_order(plan: BucketPlan) -> "tuple[np.ndarray, np.ndarray]":
    """The rounds schedule's active prefix: ``(set_rank, active)``.

    ``set_rank`` lists set ids by descending run count; ``active[k]`` is
    the number of sets with at least ``k`` runs.
    """
    counts = np.diff(plan.set_offsets, append=plan.lines.size)
    set_rank = np.argsort(-counts, kind="stable")
    counts_ranked = counts[set_rank]
    hist = np.bincount(counts_ranked[counts_ranked > 0], minlength=plan.rounds + 2)
    active = np.cumsum(hist[::-1])[::-1]
    return set_rank, active


def compact_line_ids(lines: np.ndarray) -> "tuple[np.ndarray, int]":
    """Map line ids to a dense non-negative range for table indexing.

    Returns ``(ids, table_size)``.  The cheap path subtracts the
    minimum; when the id range is much larger than the trace (sparse
    address spaces) the ids are densified with ``np.unique``, whose
    sorted output preserves the line-id order that the tie-break
    compares.
    """
    lo = int(lines.min())
    span = int(lines.max()) - lo + 1
    if span <= max(1 << 20, 8 * lines.size):
        return lines - lo, span
    uniq, ids = np.unique(lines, return_inverse=True)
    return ids, int(uniq.size)
