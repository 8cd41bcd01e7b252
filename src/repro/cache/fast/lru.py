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
* **serial** — each set's runs are replayed in a plain Python loop
  with a dict as the LRU list (insertion order = recency, values = the
  reused bit).  It costs per run rather than per round, so it wins
  when few sets carry the runs and the rounds are long and narrow.

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
from repro.cache.fast.bucket import BucketPlan, bucket_trace, compact_line_ids, schedule
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
            if schedule(plan) == "serial":
                self._engine = _SerialSets(self.config.n_sets, self.config.ways)
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


class _SerialSets:
    """Serial schedule: one dict per set, insertion order = recency."""

    def __init__(self, n_sets: int, ways: int) -> None:
        self.sets = [{} for _ in range(n_sets)]
        self.ways = ways
        self.evictions = 0
        self.dead_evictions = 0

    def replay(self, plan: BucketPlan) -> np.ndarray:
        ways = self.ways
        missed = bytearray(plan.lines.size)
        evictions = 0
        dead_evictions = 0
        ends = np.append(plan.set_offsets[1:], plan.lines.size)
        spans = zip(self.sets, plan.set_offsets.tolist(), ends.tolist())
        for resident, lo, hi in spans:
            if lo == hi:
                continue
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
        self.evictions += evictions
        self.dead_evictions += dead_evictions
        return plan.pos_first[np.frombuffer(missed, dtype=bool)]

    def dead_at_end(self) -> int:
        return sum(not reused for resident in self.sets for reused in resident.values())


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
        col_starts = plan.set_offsets[plan.set_rank]
        row_base = plan.set_rank * self.ways
        way_range = np.arange(self.ways)

        miss_positions = np.empty(ids.size, dtype=np.int64)
        n_miss = 0
        evictions = 0
        dead_evictions = 0
        for r in range(plan.rounds):
            stamp = self.played + r
            n_active = int(plan.active[r + 1])
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
