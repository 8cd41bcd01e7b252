"""Set-associative LRU simulation over a bucketed trace.

The trace arrives as one array or as consecutive blocks
(:func:`simulate_lru_blocks`); the cache state carries from each block
to the next, so only one block is resident at a time.  Each block is
grouped by cache set and collapsed into same-line runs
(:func:`repro.cache.fast.bucket.bucket_trace`), then replayed on the
schedule :func:`repro.cache.fast.bucket.schedule` picks from the first
block's plan:

* **rounds** — the per-set replays advance in lockstep, one numpy step
  per round over all active sets.  State lives in flat
  ``(n_sets * ways)`` arrays: the resident line per way (``tags``), its
  last-touch round (``age``, ``-1`` for empty ways, which doubles as
  the fill-before-evict rule since ``argmin`` picks empty ways first)
  and a re-reference bitmap (``reused``) backing the dead-line counters
  of paper Table III.  Hits are detected through a presence table
  mapping line id to its way — each line belongs to exactly one set,
  so one gather replaces a ``ways``-wide tag compare.  The table spans
  the trace's whole line-id space, and ages count on from the rounds
  earlier blocks played.
* **narrow** (reuse windows) — LRU's stack property (Mattson et al.,
  1970): a run hits iff fewer than ``ways`` distinct lines of its set
  occur since its line's previous run.  One packed-key sort links each
  run to that previous run; a gap under ``ways`` runs hits outright, a
  window holding ``ways`` lines new to the block misses outright, and
  a lockstep scan settles the rest.  Evictions are misses minus
  fills, and a residency is dead iff its last access is a miss of a
  one-access run.  The carried state is each set's LRU stack (at most
  ``ways`` lines, oldest first, each with a never-reused bit), which
  the next block replays in front of the set's own runs.  Its cost is a
  fixed number of numpy passes per block, so it wins when the rounds
  are long and narrow.

A same-line run cut by a block boundary needs no special case: its
continuation in the next block hits on the set's most recent line,
and that hit marks the line reused, exactly as the uncut run's
``multi`` flag does.  Both schedules produce counters bit-identical to
the per-access ``OrderedDict`` oracle in ``tests/oracles/cache.py``
(see ``tests/test_cache_fast_differential.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.fast.bucket import (
    BucketPlan,
    bucket_trace,
    compact_line_ids,
    round_order,
    schedule,
)
from repro.cache.lru import RegionBounds, classify_misses
from repro.cache.stats import CacheStats
from repro.errors import ValidationError


def simulate_lru_fast(
    trace: np.ndarray,
    config: CacheConfig,
    regions: Optional[RegionBounds] = None,
) -> CacheStats:
    """Set-associative LRU over one line-id array."""
    return simulate_lru_blocks((trace,), config, regions)


def simulate_lru_blocks(
    blocks: Iterable[np.ndarray],
    config: CacheConfig,
    regions: Optional[RegionBounds] = None,
    line_space: Optional[int] = None,
) -> CacheStats:
    """Set-associative LRU over a trace that arrives in consecutive blocks.

    ``line_space`` bounds the line ids of every block (``0 <= id <
    line_space``); the rounds schedule sizes its presence table from
    it.  Without it the trace must arrive as a single block.  Misses are
    split by region block by block.
    """
    cache = _LruCache(config, line_space)
    region_misses = classify_misses(np.empty(0, dtype=np.int64), (), regions)
    accesses = 0
    misses = 0
    for block in blocks:
        block = np.ascontiguousarray(np.asarray(block, dtype=np.int64))
        if not block.size:
            continue
        miss_positions = cache.replay(block)
        accesses += int(block.size)
        misses += int(miss_positions.size)
        for name, count in classify_misses(block, miss_positions, regions).items():
            region_misses[name] = region_misses.get(name, 0) + count
    return cache.stats(accesses, misses, region_misses)


def lru_replay(trace: np.ndarray, config: CacheConfig) -> Tuple[CacheStats, np.ndarray]:
    """LRU stats over one array and the trace positions that missed,
    grouped by cache set rather than in trace order."""
    trace = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    cache = _LruCache(config)
    if trace.size:
        miss_positions = cache.replay(trace)
    else:
        miss_positions = np.empty(0, dtype=np.int64)
    return cache.stats(int(trace.size), int(miss_positions.size), {}), miss_positions


class _LruCache:
    """LRU cache state carried from one trace block to the next."""

    def __init__(self, config: CacheConfig, line_space: Optional[int] = None) -> None:
        self.config = config
        self.line_space = line_space
        self._engine = None

    def replay(self, block: np.ndarray) -> np.ndarray:
        """Replay one non-empty block; its missing positions, by set."""
        plan = bucket_trace(block, self.config.n_sets)
        if self._engine is None:
            if schedule(plan, "lru") == "narrow":
                self._engine = _StackWindows(self.config.n_sets, self.config.ways)
            else:
                self._engine = _RoundSets(self.config, plan, self.line_space)
        return self._engine.replay(plan)

    def stats(self, accesses: int, misses: int, region_misses: Dict[str, int]) -> CacheStats:
        engine = self._engine
        stats = CacheStats(
            accesses=accesses,
            hits=accesses - misses,
            misses=misses,
            evictions=engine.evictions if engine else 0,
            dead_evictions=engine.dead_evictions if engine else 0,
            dead_at_end=engine.dead_at_end() if engine else 0,
            line_bytes=self.config.line_bytes,
            region_misses=region_misses,
        )
        stats.check_consistency()
        return stats


class _StackWindows:
    """Narrow schedule: each block's hits decided from reuse windows."""

    def __init__(self, n_sets: int, ways: int) -> None:
        self.ways = ways
        #: carried stacks, set by set, each oldest line first
        self.stack = np.empty(0, dtype=np.int64)
        #: the never-reused bit of each carried line
        self.stack_dead = np.empty(0, dtype=bool)
        #: carried lines per set
        self.depth = np.zeros(n_sets, dtype=np.int64)
        self.evictions = 0
        self.dead_evictions = 0

    def replay(self, plan: BucketPlan) -> np.ndarray:
        ways = self.ways
        n_carried = int(self.stack.size)
        m = plan.lines.size + n_carried
        index = np.int32 if m < 2**31 else np.int64
        # The extended block: each set's carried stack, then its runs.
        carried_pos = np.repeat(plan.set_offsets, self.depth) + np.arange(n_carried)
        is_run = np.ones(m, dtype=bool)
        is_run[carried_pos] = False
        prev, last = self._link(plan.lines, carried_pos, is_run, index)

        # Fewer than ``ways`` runs since the line's previous run: a hit.
        gap = np.arange(m, dtype=index)
        gap -= prev
        hit = prev >= 0
        pending = np.flatnonzero(hit & (gap > ways))
        hit &= gap <= ways
        del gap
        if pending.size:
            hit[pending[_window_hits(prev, pending, ways)]] = True
        miss = is_run & ~hit
        del hit

        # A residency ends at its line's last run or at the run before a
        # miss of its line, and is dead iff that is a one-access miss.
        dead = np.zeros(m, dtype=bool)
        dead[is_run] = ~plan.multi
        dead &= miss
        dead[carried_pos] = self.stack_dead
        ended = prev[miss]
        n_dead = int(np.count_nonzero(dead[ended[ended >= 0]]))
        n_dead += int(np.count_nonzero(dead[last]))

        # The new stacks: each set's last ``ways`` distinct lines.
        set_ends = np.append(plan.set_offsets[1:] + np.cumsum(self.depth)[:-1], m)
        stop = np.searchsorted(last, set_ends)
        first = np.maximum(np.append(0, stop[:-1]), stop - ways)
        depth = stop - first
        # last[first[s]:stop[s]] of every set s, concatenated.
        kept = last[np.repeat(first - np.cumsum(depth) + depth, depth) + np.arange(depth.sum())]
        carried = ~is_run[kept]
        before = np.searchsorted(carried_pos, kept)
        stack = np.empty(kept.size, dtype=np.int64)
        stack[carried] = self.stack[before[carried]]
        stack[~carried] = plan.lines[(kept - before)[~carried]]
        stack_dead = dead[kept]

        miss_runs = miss[is_run]
        fills = kept.size - n_carried
        self.evictions += int(np.count_nonzero(miss_runs)) - fills
        self.dead_evictions += n_dead - int(np.count_nonzero(stack_dead))
        self.stack, self.stack_dead, self.depth = stack, stack_dead, depth
        return plan.pos_first[miss_runs]

    def _link(self, lines, carried_pos, is_run, index):
        """Each extended run's previous run of its line (``-1`` if none),
        and the positions of every line's last run, ascending."""
        m = is_run.size
        key = np.empty(m, dtype=np.int64)
        key[is_run] = lines
        key[carried_pos] = self.stack
        lo, hi = int(key.min()), int(key.max())
        shift = max(1, (m - 1).bit_length())
        if (hi - lo).bit_length() + shift > 63:
            key = np.unique(key, return_inverse=True)[1].reshape(-1).astype(np.int64)
            lo = 0
        # Sorting packed (line, position) keys lines up each line's runs.
        key -= lo
        key <<= shift
        key |= np.arange(m, dtype=index)
        key.sort()
        pos = key.astype(index)
        pos &= (1 << shift) - 1
        key >>= shift
        same = key[1:] == key[:-1]
        del key
        prev = np.empty(m, dtype=index)
        prev[pos[0]] = -1
        prev[pos[1:]] = np.where(same, pos[:-1], -1)
        has_next = np.zeros(m, dtype=bool)
        has_next[pos[:-1]] = same
        return prev, np.flatnonzero(~has_next)

    def dead_at_end(self) -> int:
        return int(np.count_nonzero(self.stack_dead))


#: Window positions one lockstep step of the reuse scan gathers, at most.
_SCAN_BUDGET = 1 << 16


def _window_hits(prev: np.ndarray, queries: np.ndarray, ways: int) -> np.ndarray:
    """Which queried runs hit: fewer than ``ways`` distinct lines lie
    between each and its line's previous run.

    A position holds a line new to a window iff its own previous run
    lies before the window.  A line with no earlier run in the extended
    block is new to every window, so a window holding ``ways`` of those
    misses outright.  The other windows advance in lockstep, by strides
    that double, and stop once they have counted ``ways`` new lines (a
    miss) or reached their end (a hit).
    """
    hits = np.zeros(queries.size, dtype=bool)
    index = prev.dtype
    fresh = np.cumsum(prev < 0, dtype=index)
    scan = np.flatnonzero(fresh[queries - 1] - fresh[prev[queries]] < ways)
    del fresh
    batch = max(1, _SCAN_BUDGET // ways)
    for lo in range(0, scan.size, batch):
        rows = scan[lo:lo + batch]
        end = queries[rows].astype(index)
        start = prev[end]
        cursor = start + 1
        count = np.zeros(rows.size, dtype=index)
        stride = ways
        while rows.size:
            window = cursor[:, None] + np.arange(stride, dtype=index)
            inside = window < end[:, None]
            np.minimum(window, (end - 1)[:, None], out=window)
            new = prev[window] < start[:, None]
            new &= inside
            count += np.count_nonzero(new, axis=1).astype(index)
            cursor += stride
            missed = count >= ways
            done = missed | (cursor >= end)
            hits[rows[done & ~missed]] = True
            rows, end, start, cursor, count = (
                a[~done] for a in (rows, end, start, cursor, count)
            )
            stride = min(2 * stride, max(ways, _SCAN_BUDGET // max(1, rows.size)))
    return hits


class _RoundSets:
    """Rounds schedule: flat per-way state arrays, lockstep numpy rounds."""

    def __init__(self, config: CacheConfig, plan: BucketPlan, line_space: Optional[int]) -> None:
        n_ways = config.n_sets * config.ways
        self.ways = config.ways
        self.tags = np.full(n_ways, -1, dtype=np.int64)
        self.age = np.full(n_ways, -1, dtype=np.int64)
        self.reused = np.zeros(n_ways, dtype=bool)
        if line_space is None:
            # A single block: its own ids, compacted to a dense table.
            self._ids, table_size = compact_line_ids(plan.lines)
        else:
            self._ids, table_size = None, line_space
        self.way_of_line = np.full(table_size, -1, dtype=np.int64)
        #: Rounds replayed by earlier blocks; later ages count on from it.
        self.played = 0
        self.evictions = 0
        self.dead_evictions = 0

    def replay(self, plan: BucketPlan) -> np.ndarray:
        if self._ids is not None:
            if self.played:
                raise ValidationError("a trace of several blocks needs its line_space")
            ids = self._ids
        else:
            ids = plan.lines
        pos_first = plan.pos_first
        multi = plan.multi
        tags, age, reused, way_of_line = self.tags, self.age, self.reused, self.way_of_line
        set_rank, active = round_order(plan)
        col_starts = plan.set_offsets[set_rank]
        row_base = set_rank * self.ways
        way_range = np.arange(self.ways)

        miss_positions = np.empty(ids.size, dtype=np.int64)
        n_miss = 0
        evictions = 0
        dead_evictions = 0
        for r in range(plan.rounds):
            stamp = self.played + r
            n_active = int(active[r + 1])
            idx = col_starts[:n_active] + r
            line = ids[idx]
            way = way_of_line[line]
            hit = way >= 0
            base = row_base[:n_active]
            flat_hit = base[hit] + way[hit]
            age[flat_hit] = stamp
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
                age[flat_victim] = stamp
                reused[flat_victim] = multi[miss_idx]
                way_of_line[miss_line] = victim
        self.played += plan.rounds
        self.evictions += evictions
        self.dead_evictions += dead_evictions
        return miss_positions[:n_miss]

    def dead_at_end(self) -> int:
        return int(np.count_nonzero((self.age >= 0) & ~self.reused))
