"""Single public entry point for cache simulation.

:func:`simulate` replays one trace on the bucketed engines in
:mod:`repro.cache.fast`.  LRU always runs there.  Belady keeps one fork,
chosen from the input: a cache with fewer than 16 sets, or a trace of
fewer than 8192 accesses, takes the per-access loop in
:mod:`repro.cache.belady`.  Few sets serialize the vectorized rounds
into long per-set chains and tiny traces are dominated by bucketing
overhead, so the loop wins there (4.4x on 4-set test traces), while the
vectorized engine is up to 9x faster at 512 or more sets and 31x at the
A6000 geometry.  Both sides produce bit-identical
:class:`~repro.cache.stats.CacheStats`.

The per-access loops (``_simulate_lru``, ``_simulate_belady``) are
otherwise the oracles of the differential tests and ``repro bench-sim``.

Every call emits one ``cache-sim`` observability span tagged with the
policy and the engine that ran (``impl="fast"|"reference"``), plus
``cache.<policy>.*`` counters.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.cache.belady import _simulate_belady
from repro.cache.config import CacheConfig
from repro.cache.fast import simulate_belady_fast, simulate_lru_fast
from repro.cache.lru import RegionBounds
from repro.cache.stats import CacheStats
from repro.errors import ValidationError
from repro.obs import get_obs
from repro.trace.kernel_traces import KernelTrace

POLICIES = ("lru", "belady")

#: Below either bound Belady's per-access loop beats its vectorized
#: engine (see the module docstring for the measurements).
_BELADY_FAST_MIN_SETS = 16
_BELADY_FAST_MIN_ACCESSES = 8192


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
    if isinstance(trace, KernelTrace):
        if regions is None:
            regions = trace.regions
        lines = trace.lines
    else:
        lines = trace
    if policy not in POLICIES:
        raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
    n = int(np.size(lines))
    if policy == "lru":
        impl, engine = "fast", simulate_lru_fast
    elif n < _BELADY_FAST_MIN_ACCESSES or config.n_sets < _BELADY_FAST_MIN_SETS:
        impl, engine = "reference", _simulate_belady
    else:
        impl, engine = "fast", simulate_belady_fast

    obs = get_obs()
    with obs.span("cache-sim", policy=policy, impl=impl, accesses=n):
        stats = engine(lines, config, regions)
    if obs.enabled:
        obs.add_counters(stats.as_counters(prefix=f"cache.{policy}"))
    return stats
