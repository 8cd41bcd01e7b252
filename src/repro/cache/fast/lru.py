"""Set-associative LRU simulation from reuse windows.

The trace arrives as one array or as consecutive blocks
(:func:`simulate_lru_blocks`); the cache state carries from each block
to the next, so only one block is resident at a time.  Each block is
grouped by cache set and collapsed into same-line runs
(:func:`repro.cache.fast.bucket.bucket_trace`), then replayed from
LRU's stack property (Mattson et al., 1970): a run hits iff fewer than
``ways`` distinct lines of its set occur since its line's previous run.
One packed-key sort links each run to that previous run; a gap under
``ways`` runs hits outright, a window holding ``ways`` lines new to the
block misses outright, and a lockstep scan settles the rest.
Evictions are misses minus fills, and a residency is dead iff its last
access is a miss of a one-access run.  The carried state is each set's
LRU stack (at most ``ways`` lines, oldest first, each with a
never-reused bit), which the next block replays in front of the set's
own runs.  The cost is a fixed number of numpy passes per block,
however many sets the plan spans.

A same-line run cut by a block boundary needs no special case: its
continuation in the next block hits on the set's most recent line,
and that hit marks the line reused, exactly as the uncut run's
``multi`` flag does.  The counters are bit-identical to the per-access
``OrderedDict`` oracle in ``tests/oracles/cache.py`` (see
``tests/test_cache_fast_differential.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.fast.bucket import bucket_trace, link_lines
from repro.cache.lru import RegionBounds, classify_misses
from repro.cache.stats import CacheStats


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
) -> CacheStats:
    """Set-associative LRU over a trace that arrives in consecutive
    blocks.  Misses are split by region block by block."""
    cache = _LruCache(config)
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
    """LRU cache state carried from one trace block to the next: each
    set's LRU stack."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        #: carried stacks, set by set, each oldest line first
        self.stack = np.empty(0, dtype=np.int64)
        #: the never-reused bit of each carried line
        self.stack_dead = np.empty(0, dtype=bool)
        #: carried lines per set
        self.depth = np.zeros(config.n_sets, dtype=np.int64)
        self.evictions = 0
        self.dead_evictions = 0

    def replay(self, block: np.ndarray) -> np.ndarray:
        """Replay one non-empty block; its missing positions, by set."""
        plan = bucket_trace(block, self.config.n_sets)
        ways = self.config.ways
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
        pos, same = link_lines(key, index)
        del key
        prev = np.empty(m, dtype=index)
        prev[pos[0]] = -1
        prev[pos[1:]] = np.where(same, pos[:-1], -1)
        has_next = np.zeros(m, dtype=bool)
        has_next[pos[:-1]] = same
        return prev, np.flatnonzero(~has_next)

    def stats(self, accesses: int, misses: int, region_misses: Dict[str, int]) -> CacheStats:
        stats = CacheStats(
            accesses=accesses,
            hits=accesses - misses,
            misses=misses,
            evictions=self.evictions,
            dead_evictions=self.dead_evictions,
            dead_at_end=int(np.count_nonzero(self.stack_dead)),
            line_bytes=self.config.line_bytes,
            region_misses=region_misses,
        )
        stats.check_consistency()
        return stats


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
