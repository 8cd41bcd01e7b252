"""Bucketed cache simulators.

The product simulators behind :func:`repro.cache.simulate`, one per
policy: the trace is grouped by cache set and same-line runs collapse
to one access, so no loop runs per access.  Both engines replay wide
plans in numpy lockstep rounds.  Narrow plans (few busy sets) take
LRU's reuse windows, which decide a whole block's hits in numpy from
LRU's stack property, or Belady's serial loop over each set's runs.
One width rule, :func:`repro.cache.fast.bucket.schedule`, picks the
schedule for both, each policy with its own measured width.
Identical ``CacheStats`` (bit-for-bit, including dead-line and
per-region miss counters) to the per-access LRU and Belady loops in
``tests/oracles/cache.py``, and faster on realistic traces
(measurements in the README); the randomized differential suite
(``tests/test_cache_fast_differential.py``) pins the equivalence.

Callers should not import this package directly — go through
:func:`repro.cache.simulate`, which adds the observability span.
"""

from repro.cache.fast.belady import simulate_belady_fast
from repro.cache.fast.lru import simulate_lru_blocks, simulate_lru_fast

__all__ = ["simulate_belady_fast", "simulate_lru_blocks", "simulate_lru_fast"]
