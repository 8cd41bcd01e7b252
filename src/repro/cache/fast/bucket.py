"""Trace bucketing for the vectorized simulators.

Set-associative replacement is sequential *within* a set but
independent *across* sets, so both engines first group the trace by
cache set (:func:`bucket_trace`) and then replay each set's sub-trace:
LRU from reuse windows (:mod:`repro.cache.fast.lru`), Belady serially
or in lockstep rounds (:mod:`repro.cache.fast.belady`).

Within one set's sub-trace, consecutive accesses to the same line are
guaranteed hits under both LRU and Belady (no other access to the set
intervenes, so the line cannot have been evicted).  Each such run is
replayed as a single access carrying its original first position (the
only position that can miss) and a ``multi`` flag (the line was
re-referenced, for dead-line accounting).  On the bench corpus's L2
(16 sets), SpGEMM blocks collapse 4.4-7.9x, or 1.5-3.5x on its three
sparsest matrices (kmer, road, mesh); spmv and spmm traces collapse
1.4-6.9x on the bench and full corpora.

The group-by-set step is a stable counting sort implemented as one
``np.sort`` over packed ``(set_id << shift) | position`` keys, which
is considerably faster than ``np.argsort(..., kind="stable")``.

Most accesses of a SpGEMM trace need no place in that sort.  Its B-row
walk alternates a ``b_coords`` and a ``b_values`` line, so most
accesses repeat the line two accesses back while the access between
them lies in another set.  Such an access, like one that repeats the
line one access back, provably continues its set-predecessor's run:
no other access to its set lies between them.  It can be neither a run
start nor a miss, and all it changes is its run's ``multi`` flag.  When
these continuations are at least :data:`COMPACT_SHARE` of the trace
(:func:`drop_continuations`), they are dropped before the sort, and
each kept access remembers whether a dropped one continued it.  The
plan is identical either way, and so is every counter.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

#: The share of a trace's accesses that must provably continue their
#: set-predecessor's run before they are dropped ahead of the sort.
#: Measured shares: SpGEMM blocks 0.50-0.87 on the bench corpus, bar
#: bench-kmer's 0.16-0.17 (its B rows are short); spmv and spmm blocks
#: at most 0.03 on the bench and full corpora.  Dropping broke even
#: near 0.3 on a bench-social SpGEMM block whose continuations were
#: broken at random.
COMPACT_SHARE = 0.3


class BucketPlan(NamedTuple):
    """Per-run arrays (natural set order) plus the round count."""

    #: line id of each collapsed run
    lines: np.ndarray
    #: original trace position of each run's first access
    pos_first: np.ndarray
    #: run length > 1 (the inserted line was re-referenced in-run)
    multi: np.ndarray
    #: start offset of each set's runs within the bucketed arrays
    set_offsets: np.ndarray
    #: number of rounds (max runs in any one set)
    rounds: int


def set_ids(lines: np.ndarray, n_sets: int) -> np.ndarray:
    """The cache set of each line, in the smallest unsigned dtype that
    holds ``n_sets - 1``; a mask when ``n_sets`` is a power of two."""
    out = np.empty(lines.shape, dtype=np.min_scalar_type(n_sets - 1))
    if n_sets & (n_sets - 1) == 0:
        np.bitwise_and(lines, n_sets - 1, out=out, casting="unsafe")
    else:
        np.remainder(lines, n_sets, out=out, casting="unsafe")
    return out


def bucket_trace(trace: np.ndarray, n_sets: int) -> BucketPlan:
    """Group a non-empty ``trace`` by cache set and collapse within-set
    runs."""
    n = trace.size
    sets = set_ids(trace, n_sets)
    dropped = drop_continuations(trace, sets)
    if dropped is None:
        positions = followed = None
    else:
        positions, followed = dropped
        sets = sets[positions]

    shift = max(1, int(n - 1).bit_length())
    key_bits = (n_sets - 1).bit_length() + shift
    if key_bits <= 62:
        # Stable counting sort via packed keys: the position in the low
        # bits makes equal-set keys compare by position, i.e. stable.
        # Keys are 32 bits when they fit, to keep the peak memory of
        # large traces down.
        key = sets.astype(np.uint32 if key_bits <= 32 else np.int64)
        del sets
        key <<= shift
        if positions is None:
            key |= np.arange(n, dtype=key.dtype)
        else:
            np.bitwise_or(key, positions, out=key, casting="unsafe")
        key.sort()
        key &= (1 << shift) - 1
        order = key
    else:  # pragma: no cover - needs a trace too large to allocate here
        order = np.argsort(sets, kind="stable")
        if positions is not None:
            order = positions[order]
    del positions
    if -(2**31) <= int(trace.min()) and int(trace.max()) < 2**31:
        bucketed = trace.astype(np.int32)[order]
    else:
        bucketed = trace[order]

    # A run starts where the line changes: the same line is the same set.
    m = order.size
    start = np.empty(m, dtype=bool)
    start[0] = True
    np.not_equal(bucketed[1:], bucketed[:-1], out=start[1:])
    idx_start = np.nonzero(start)[0]
    n_runs = idx_start.size
    run_len = np.empty(n_runs, dtype=np.int64)
    run_len[:-1] = np.diff(idx_start)
    run_len[-1] = m - idx_start[-1]

    lines = bucketed[idx_start]
    pos_first = order[idx_start].astype(np.int64)
    multi = run_len > 1
    if followed is not None:
        # A run that kept only its start is longer than one exactly when
        # a dropped access continued that start.
        multi |= followed[pos_first]

    counts = np.bincount(set_ids(lines, n_sets), minlength=n_sets)
    offsets = np.zeros(n_sets, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    rounds = int(counts.max()) if n_runs else 0
    return BucketPlan(lines, pos_first, multi, offsets, rounds)


def drop_continuations(
    trace: np.ndarray, sets: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The accesses left once provable continuations are dropped, or
    ``None`` when those are under :data:`COMPACT_SHARE` of ``trace``.

    An access continues its set-predecessor's run when it repeats the
    line one access back (always its set-predecessor), or two back
    while the access between lies in another set.  Returns the kept
    positions, ascending, and for every position whether a dropped
    access continued it.  A run start is never dropped, and every
    dropped access chains back through dropped ones to a kept access
    of its own run.
    """
    n = trace.size
    again = trace[1:] == trace[:-1]
    skip = trace[2:] == trace[:-2]
    skip &= sets[2:] != sets[1:-1]
    # The two rules never both hold: ``again`` puts the access between
    # in the same set.
    if np.count_nonzero(again) + np.count_nonzero(skip) < COMPACT_SHARE * n:
        return None
    kept = np.ones(n, dtype=bool)
    kept[1:] &= ~again
    kept[2:] &= ~skip
    followed = np.zeros(n, dtype=bool)
    followed[:-1] = again
    followed[:-2] |= skip
    return np.flatnonzero(kept), followed


def link_lines(ids: np.ndarray, index: type) -> Tuple[np.ndarray, np.ndarray]:
    """Line up equal ids: ``(pos, same)`` where ``pos`` lists the
    positions of ``ids`` by id, then position, and ``same[k]`` says
    ``pos[k + 1]`` holds the same id as ``pos[k]``.

    ``ids`` is an int64 array that this call consumes.  One sort of
    packed ``(id - min) << shift | position`` keys does it; ids whose
    span does not fit beside the position go through ``np.unique``
    first.
    """
    m = ids.size
    lo, hi = int(ids.min()), int(ids.max())
    shift = max(1, (m - 1).bit_length())
    if (hi - lo).bit_length() + shift > 63:
        ids = np.unique(ids, return_inverse=True)[1].reshape(-1).astype(np.int64)
        lo = 0
    key = ids
    key -= lo
    key <<= shift
    key |= np.arange(m, dtype=index)
    key.sort()
    pos = key.astype(index)
    pos &= (1 << shift) - 1
    key >>= shift
    same = key[1:] == key[:-1]
    return pos, same
