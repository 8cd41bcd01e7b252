"""Single public entry point for cache simulation.

:func:`simulate` replays one trace on its policy's bucketed engine in
:mod:`repro.cache.fast` — one engine per policy, whatever the input.
LRU decides every plan's hits from reuse windows; Belady picks its
serial or rounds schedule from the plan's width
(:func:`repro.cache.fast.belady.schedule`).  Both Belady schedules
produce bit-identical :class:`~repro.cache.stats.CacheStats`.

A :class:`KernelTrace` reaches the LRU engine block by block
(:func:`repro.cache.fast.lru.simulate_lru_blocks`), so a lazily built
trace is never whole in memory.  The walk is closed when the replay
ends, even by an exception, so a walk's worker thread never outlives
the call.  Belady needs next-use distances over the whole trace and
takes the materialized ``trace.lines``.

The differential tests hold both engines to the per-access loops in
``tests/oracles/cache.py``.

Every call emits one ``cache-sim`` observability span tagged with the
policy and, at exit, the access count, plus ``cache.<policy>.*``
counters.
"""

from __future__ import annotations

from contextlib import closing
from typing import Optional, Union

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.fast import simulate_belady_fast, simulate_lru_blocks, simulate_lru_fast
from repro.cache.lru import RegionBounds
from repro.cache.stats import CacheStats
from repro.errors import ValidationError
from repro.obs import get_obs
from repro.trace.kernel_traces import KernelTrace

#: The replacement policies :func:`simulate` accepts.
POLICIES = ("lru", "belady")


def simulate(
    trace: Union[np.ndarray, KernelTrace],
    config: CacheConfig,
    *,
    policy: str = "lru",
    regions: Optional[RegionBounds] = None,
) -> CacheStats:
    """Simulate ``trace`` (line IDs or a :class:`KernelTrace`) on ``config``.

    When ``trace`` is a :class:`KernelTrace` its region bounds are used
    for the per-region miss split unless ``regions`` is given
    explicitly (pass ``regions=()`` to suppress the split).  ``policy``
    selects LRU or Belady replacement.
    """
    if policy not in POLICIES:
        raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
    kernel_trace = isinstance(trace, KernelTrace)
    if kernel_trace and regions is None:
        regions = trace.regions
    obs = get_obs()
    with obs.span("cache-sim", policy=policy) as span:
        if policy == "belady":
            lines = trace.lines if kernel_trace else trace
            stats = simulate_belady_fast(lines, config, regions)
        elif kernel_trace:
            with closing(trace.blocks()) as blocks:
                stats = simulate_lru_blocks(blocks, config, regions)
        else:
            stats = simulate_lru_fast(trace, config, regions)
        if span is not None:
            span.tags["accesses"] = stats.accesses
    if obs.enabled:
        obs.add_counters(stats.as_counters(prefix=f"cache.{policy}"))
    return stats
