"""Bucketed cache simulators.

The product simulators behind :func:`repro.cache.simulate`: the trace
is grouped by cache set and same-line runs collapse to one access, so
no loop runs per access.  Wide plans replay in numpy lockstep rounds;
LRU replays narrow plans (few busy sets) per set in a Python loop over
the collapsed runs.  Identical ``CacheStats`` (bit-for-bit, including
dead-line and per-region miss counters) to the per-access loops in
:mod:`repro.cache.lru` and :mod:`repro.cache.belady`, 3x to 30x faster
on realistic traces (measurements in the README).  Those loops stay
in-tree as the oracle; the randomized differential suite
(``tests/test_cache_fast_differential.py``) pins the equivalence.

Callers should not import this package directly — go through
:func:`repro.cache.simulate`, which adds the observability span and
Belady's small-input fork.
"""

from repro.cache.fast.belady import simulate_belady_fast
from repro.cache.fast.lru import simulate_lru_fast

__all__ = ["simulate_belady_fast", "simulate_lru_fast"]
