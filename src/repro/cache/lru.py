"""Miss accounting shared by the cache simulators.

:func:`classify_misses` splits a simulation's misses by address region
and :func:`compulsory_misses` counts the distinct lines of a trace (the
compulsory-miss floor).  The LRU replay itself (paper Section VI-B: "an
L2 cache with LRU replacement policy (which closely models A6000's L2
cache)") is the bucketed engine in :mod:`repro.cache.fast.lru`, run
through :func:`repro.cache.simulate`; the per-access ``OrderedDict``
loop it replaced is the oracle in ``tests/oracles/cache.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: (region name, first line id, one-past-last line id)
RegionBounds = Sequence[Tuple[str, int, int]]


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
