"""Bucketed cache simulators.

Drop-in fast paths for the reference simulators in
:mod:`repro.cache.lru` and :mod:`repro.cache.belady`: the trace is
grouped by cache set and same-line runs collapse to one access, so no
loop runs per access.  Wide plans replay in numpy lockstep rounds; LRU
replays narrow plans (few busy sets) per set in a Python loop over the
collapsed runs.  Identical ``CacheStats`` (bit-for-bit, including
dead-line and per-region miss counters), 3x to 30x faster on
realistic traces (measurements in the README).  The reference
implementations stay in-tree as the oracle; the randomized
differential suite (``tests/test_cache_fast_differential.py``) pins
the equivalence.

Callers should not import this package directly — go through
:func:`repro.cache.simulate`, which dispatches between the fast and
reference engines (``impl="fast"|"reference"|"auto"``, env override
``REPRO_SIM_IMPL``).
"""

from repro.cache.fast.belady import simulate_belady_fast
from repro.cache.fast.lru import simulate_lru_fast

__all__ = ["simulate_belady_fast", "simulate_lru_fast"]
