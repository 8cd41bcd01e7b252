"""Named counters, gauges and histograms with thread-safe aggregation."""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional

from repro.obs.histogram import Histogram


class CounterRegistry:
    """Monotonic counters, gauges, and log-bucketed histograms.

    Counters accumulate (``store.eval.hit``, ``cache.lru.misses``);
    gauges record a point-in-time value (``corpus.size``); histograms
    record latency distributions (span durations, per-cell wall time).
    All methods are safe to call from multiple threads.

    Cross-process merge semantics (worker snapshots folded into the
    parent; see :mod:`repro.parallel`):

    * counters **add** — total work is the sum of worker work;
    * gauges merge **max-wins** (:meth:`merge_gauges`) — a deterministic,
      order-independent fold, unlike last-write-wins which would depend
      on pool completion order;
    * histograms merge by **bucket addition** (:meth:`merge_histograms`)
      — exact, because bucket boundaries are a pure function of the
      value (see :mod:`repro.obs.histogram`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def add_many(self, values: Mapping[str, float]) -> None:
        with self._lock:
            for name, value in values.items():
                self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def merge_gauges(self, gauges: Mapping[str, float]) -> None:
        """Fold another process's gauges in, max-wins per name.

        ``max`` is commutative and associative, so the merged value is
        independent of worker completion order — merging snapshots in
        any order yields the same gauges (last-write-wins would not).
        """
        with self._lock:
            for name, value in gauges.items():
                value = float(value)
                current = self._gauges.get(name)
                self._gauges[name] = value if current is None else max(current, value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def merge_histograms(self, histograms: Mapping[str, object]) -> None:
        """Fold serialized (or live) histograms in by bucket addition."""
        with self._lock:
            for name, value in histograms.items():
                incoming = (
                    value
                    if isinstance(value, Histogram)
                    else Histogram.from_json(value)  # type: ignore[arg-type]
                )
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram()
                hist.merge(incoming)

    def get(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def gauge(self, name: str, default: Optional[float] = None) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name, default)

    def histogram(self, name: str) -> Optional[Histogram]:
        """Copy of the named histogram (safe to read without the lock)."""
        with self._lock:
            hist = self._histograms.get(name)
            return hist.copy() if hist is not None else None

    def histograms(self) -> Dict[str, Histogram]:
        """Copies of every histogram, keyed by name."""
        with self._lock:
            return {name: hist.copy() for name, hist in self._histograms.items()}

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Copy of all counters, gauges and histograms (wire format).

        Histograms are serialized (:meth:`Histogram.to_json`) so the
        snapshot pickles/JSON-encodes across process boundaries.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.to_json() for name, hist in self._histograms.items()
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
