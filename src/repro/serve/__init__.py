"""repro.serve — reordering-as-a-service (ROADMAP north-star item 1).

A long-lived HTTP/JSON tier that turns the single-shot pipeline into
something that can absorb heavy repeat traffic by caching permutations
instead of recomputing them:

* :class:`~repro.store.ResultStore` — the content-addressed on-disk
  store it shares with the experiment runner: keys derive from the
  CSR *structure* digest, every entry is wrapped in the checksummed
  cache envelope, so a damaged entry quarantines and recomputes
  instead of poisoning the service;
* :class:`~repro.serve.coalesce.SingleFlight` — request coalescing:
  concurrent requests for the same key block on one in-flight
  computation via a keyed-lock table;
* :class:`~repro.serve.service.ReorderService` — the request pipeline
  (corpus name or ``.mtx`` upload -> recommended technique ->
  permutation -> predicted traffic/runtime from the existing
  simulator), with per-request deadlines reusing
  :func:`~repro.resilience.cell_deadline` semantics;
* :mod:`repro.serve.httpd` — the stdlib ``ThreadingHTTPServer`` front
  end (``repro serve``), with ``/ready`` + SIGTERM graceful drain;
* :class:`~repro.serve.admission.Admission` — bounded in-flight
  compute semaphore + bounded wait queue; excess load is shed as 429
  with ``Retry-After`` instead of melting the box;
* :class:`~repro.serve.breaker.CircuitBreaker` — closed→open→half-open
  breakers around the compute and store fault domains; an open compute
  breaker degrades ``"auto"`` requests to predictor-only answers
  (``"degraded": true``, 202);
* :class:`~repro.serve.client.ServeClient` — the resilient client:
  capped exponential backoff with full jitter, ``Retry-After``
  honoring, idempotent retries keyed on the request content digest;
* :mod:`repro.serve.bench` — the load-test harness (``repro
  serve-bench``) replaying a zipf-skewed synthetic trace and writing
  ``BENCH_serve.json``, including an ``--overload`` mode that drives
  the admission controller past capacity and reports goodput/shed/p99.

Everything is stdlib + numpy; there is no new dependency.
"""

from repro.serve.admission import Admission
from repro.serve.breaker import CircuitBreaker
from repro.serve.client import ClientResponse, ServeClient
from repro.serve.coalesce import SingleFlight
from repro.serve.service import ReorderService, ServeConfig, ServeResult

__all__ = [
    "Admission",
    "CircuitBreaker",
    "ClientResponse",
    "ReorderService",
    "ServeClient",
    "ServeConfig",
    "ServeResult",
    "SingleFlight",
]
