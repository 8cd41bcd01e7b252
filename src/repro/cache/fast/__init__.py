"""Bucketed cache simulators.

The product simulators behind :func:`repro.cache.simulate`, one per
policy: the trace is grouped by cache set and same-line runs collapse
to one access, so no loop runs per access.  LRU decides every plan's
hits from reuse windows, in numpy from LRU's stack property.  Belady
replays wide plans in numpy lockstep rounds and narrow plans (few busy
sets) in a serial loop over each set's runs; its width rule,
:func:`repro.cache.fast.belady.schedule`, picks between them.
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
