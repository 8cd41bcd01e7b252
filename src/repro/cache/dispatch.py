"""Single public entry point for cache simulation.

:func:`simulate` dispatches one trace replay to either the reference
per-access simulators (:mod:`repro.cache.lru`,
:mod:`repro.cache.belady`) or the bucketed engines
(:mod:`repro.cache.fast`), which produce bit-identical
:class:`~repro.cache.stats.CacheStats`.

Implementation selection (``impl`` argument):

* ``"fast"`` / ``"reference"`` — force one engine.
* ``"auto"`` (default) — pick the fast engine unless the trace is
  short; for Belady, also unless the cache has so few sets that they
  serialize its rounds.
* ``None`` — read ``$REPRO_SIM_IMPL`` (same three values), falling
  back to ``"auto"``; this is how an entire experiment run is steered
  without code changes.

Every call emits one ``cache-sim`` observability span tagged with the
policy and the resolved implementation, plus ``cache.<policy>.*``
counters — the same names the reference wrappers have always used, so
profiles stay comparable across implementations.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

from repro.cache.belady import _simulate_belady
from repro.cache.config import CacheConfig
from repro.cache.fast import simulate_belady_fast, simulate_lru_fast
from repro.cache.lru import RegionBounds, _simulate_lru
from repro.cache.stats import CacheStats
from repro.errors import ValidationError
from repro.obs import get_obs
from repro.trace.kernel_traces import KernelTrace

#: Environment variable overriding the default implementation choice.
IMPL_ENV_VAR = "REPRO_SIM_IMPL"

IMPLS = ("auto", "fast", "reference")
POLICIES = ("lru", "belady")

#: Below either bound the reference loop beats the fast engine: few
#: sets means long sequential per-set chains for the Belady rounds, and
#: tiny traces are dominated by the bucketing overhead.  Fast LRU has no
#: set floor: it replays narrow plans on its serial schedule.
_FAST_MIN_SETS = {"belady": 16}
_FAST_MIN_ACCESSES = 8192


def resolve_impl(impl: Optional[str] = None) -> str:
    """Validate ``impl``, consulting ``$REPRO_SIM_IMPL`` when ``None``."""
    if impl is None:
        impl = os.environ.get(IMPL_ENV_VAR, "").strip().lower() or "auto"
    if impl not in IMPLS:
        raise ValidationError(f"impl must be one of {IMPLS}, got {impl!r}")
    return impl


def _choose_impl(n_accesses: int, config: CacheConfig, policy: str) -> str:
    if n_accesses < _FAST_MIN_ACCESSES:
        return "reference"
    if config.n_sets < _FAST_MIN_SETS.get(policy, 0):
        return "reference"
    return "fast"


def simulate(
    trace: Union[np.ndarray, KernelTrace],
    config: CacheConfig,
    *,
    policy: str = "lru",
    regions: Optional[RegionBounds] = None,
    impl: Optional[str] = None,
) -> CacheStats:
    """Simulate ``trace`` (line IDs or a :class:`KernelTrace`) on ``config``.

    When ``trace`` is a :class:`KernelTrace` its region bounds are used
    for the per-region miss split unless ``regions`` is given
    explicitly (pass ``regions=()`` to suppress the split).  ``policy``
    selects LRU or Belady replacement and ``impl`` the engine, as
    documented in the module docstring.
    """
    if isinstance(trace, KernelTrace):
        if regions is None:
            regions = trace.regions
        lines = trace.lines
    else:
        lines = trace
    if policy not in POLICIES:
        raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
    impl = resolve_impl(impl)
    n = int(np.size(lines))
    if impl == "auto":
        impl = _choose_impl(n, config, policy)

    obs = get_obs()
    with obs.span("cache-sim", policy=policy, impl=impl, accesses=n):
        if policy == "lru":
            engine = simulate_lru_fast if impl == "fast" else _simulate_lru
        else:
            engine = simulate_belady_fast if impl == "fast" else _simulate_belady
        stats = engine(lines, config, regions)
    if obs.enabled:
        obs.add_counters(stats.as_counters(prefix=f"cache.{policy}"))
    return stats
