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
re-referenced, for dead-line accounting).  Real kernel traces collapse
~5-10x.

The group-by-set step is a stable counting sort implemented as one
``np.sort`` over packed ``(set_id << shift) | position`` keys, which
is considerably faster than ``np.argsort(..., kind="stable")``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np


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
