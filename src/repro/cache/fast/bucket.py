"""Trace bucketing for the vectorized simulators.

Set-associative replacement is sequential *within* a set but
independent *across* sets, so the trace is grouped by cache set and
replayed in rounds: round ``r`` performs the ``r``-th access of every
set that still has one, each round a handful of numpy array
operations over the active sets.  Narrow plans take each engine's
narrow schedule instead (LRU's reuse windows, Belady's serial loop);
:func:`schedule` is the one width rule both engines use, each with its
own measured width.  Two observations make the rounds fast:

* **Run collapse.**  Within one set's sub-trace, consecutive accesses
  to the same line are guaranteed hits under both LRU and Belady (no
  other access to the set intervenes, so the line cannot have been
  evicted).  Each run is replayed as a single access carrying its
  original first position (the only position that can miss) and a
  ``multi`` flag (the line was re-referenced, for dead-line
  accounting).  Real kernel traces collapse ~5-10x.

* **Active-prefix schedule.**  Sets are ranked by descending run
  count, so round ``r`` touches the contiguous prefix of sets whose
  count exceeds ``r`` — no masking, no compaction per round.

The group-by-set step is a stable counting sort implemented as one
``np.sort`` over packed ``(set_id << shift) | position`` keys, which
is considerably faster than ``np.argsort(..., kind="stable")``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

#: Per policy, the average runs per round below which the engine's
#: narrow schedule beats the rounds loop, whose rounds cost a fixed ~20
#: numpy calls however many sets they touch.  Belady's narrow schedule
#: is a serial loop at a few heap operations per run (crossover measured
#: near 64 on the profile L2s' spmv-csr traces).  LRU's decides a
#: whole block in a fixed number of numpy passes: on SpGEMM, SpMV and
#: SpMM-256 traces over 32 to 12288 sets (16 ways, 2-core Xeon) it won
#: up to 830 runs per round and lost from 2234; a uniform random trace
#: whose lines nearly fit the cache (long hit windows) lost from 493.
NARROW_WIDTH = {"lru": 1024, "belady": 64}


class BucketPlan(NamedTuple):
    """Per-run arrays (natural set order) plus the round count."""

    #: line id of each collapsed run
    lines: np.ndarray
    #: original trace position of each run's first access
    pos_first: np.ndarray
    #: original trace position of each run's last access (``None``
    #: unless asked for: only Belady reads it)
    pos_last: Optional[np.ndarray]
    #: run length > 1 (the inserted line was re-referenced in-run)
    multi: np.ndarray
    #: start offset of each set's runs within the bucketed arrays
    set_offsets: np.ndarray
    #: number of rounds (max runs in any one set)
    rounds: int


def bucket_trace(trace: np.ndarray, n_sets: int, *, run_ends: bool = False) -> BucketPlan:
    """Group ``trace`` by cache set and collapse within-set runs;
    ``run_ends`` also records each run's last position."""
    n = trace.size
    shift = max(1, int(n - 1).bit_length())
    key_bits = (n_sets - 1).bit_length() + shift
    if key_bits <= 62:
        # Stable counting sort via packed keys: the position in the low
        # bits makes equal-set keys compare by position, i.e. stable.
        # Keys are built in place, in 32 bits when they fit, to keep the
        # peak memory of large traces down.
        key = np.empty(n, dtype=np.uint32 if key_bits <= 32 else np.int64)
        np.remainder(trace, n_sets, out=key, casting="unsafe")
        key <<= shift
        key |= np.arange(n, dtype=key.dtype)
        key.sort()
        bucketed_sets = key >> shift
        key &= (1 << shift) - 1
        order = key
    else:  # pragma: no cover - needs a trace too large to allocate here
        set_ids = trace % n_sets
        order = np.argsort(set_ids, kind="stable")
        bucketed_sets = set_ids[order]
    if -(2**31) <= int(trace.min()) and int(trace.max()) < 2**31:
        bucketed = trace.astype(np.int32)[order]
    else:
        bucketed = trace[order]

    # A run starts where either the line or the set changes.
    start = np.empty(n, dtype=bool)
    start[0] = True
    np.not_equal(bucketed[1:], bucketed[:-1], out=start[1:])
    start[1:] |= bucketed_sets[1:] != bucketed_sets[:-1]
    idx_start = np.nonzero(start)[0]
    n_runs = idx_start.size
    run_len = np.empty(n_runs, dtype=np.int64)
    run_len[:-1] = np.diff(idx_start)
    run_len[-1] = n - idx_start[-1]

    lines = bucketed[idx_start]
    pos_first = order[idx_start].astype(np.int64)
    pos_last = order[idx_start + run_len - 1].astype(np.int64) if run_ends else None
    multi = run_len > 1

    counts = np.bincount(bucketed_sets[idx_start], minlength=n_sets)
    offsets = np.zeros(n_sets, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    rounds = int(counts.max()) if n_runs else 0
    return BucketPlan(lines, pos_first, pos_last, multi, offsets, rounds)


def round_order(plan: BucketPlan) -> "tuple[np.ndarray, np.ndarray]":
    """The rounds schedule's active prefix: ``(set_rank, active)``.

    ``set_rank`` lists set ids by descending run count; ``active[k]`` is
    the number of sets with at least ``k`` runs.  Only the rounds
    engines read it, so narrow plans never build it.
    """
    counts = np.diff(plan.set_offsets, append=plan.lines.size)
    set_rank = np.argsort(-counts, kind="stable")
    counts_ranked = counts[set_rank]
    hist = np.bincount(counts_ranked[counts_ranked > 0], minlength=plan.rounds + 2)
    active = np.cumsum(hist[::-1])[::-1]
    return set_rank, active


def schedule(plan: BucketPlan, policy: str) -> str:
    """``"narrow"`` or ``"rounds"``: the schedule ``policy``'s engine
    replays ``plan`` on."""
    narrow = plan.lines.size < NARROW_WIDTH[policy] * plan.rounds
    return "narrow" if narrow else "rounds"


def compact_line_ids(lines: np.ndarray) -> "tuple[np.ndarray, int]":
    """Map line ids to a dense non-negative range for table indexing.

    Returns ``(ids, table_size)``.  The cheap path subtracts the
    minimum; when the id range is much larger than the trace (sparse
    address spaces) the ids are densified with ``np.unique``, whose
    sorted output preserves the line-id order that Belady's tie-break
    compares.
    """
    lo = int(lines.min())
    span = int(lines.max()) - lo + 1
    if span <= max(1 << 20, 8 * lines.size):
        return lines - lo, span
    uniq, ids = np.unique(lines, return_inverse=True)
    return ids, int(uniq.size)
