"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An input value violates a documented invariant.

    Subclasses ``ValueError`` so call sites that predate the library's
    own hierarchy (``except ValueError``) keep working.
    """


class ShapeError(ValidationError):
    """Array shapes are inconsistent with each other or with metadata."""


class FormatError(ValidationError):
    """A sparse-matrix container violates its format invariants."""


class CorpusError(ReproError, KeyError):
    """A corpus entry was requested that does not exist."""


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""


class ParallelExecutionError(ExperimentError):
    """A worker process failed while precomputing a pipeline cell.

    Raised by :mod:`repro.parallel` with the failing cell named in the
    message; a crashed worker always fails the sweep loudly instead of
    silently dropping its cell.
    """


class TransientError(ReproError):
    """A failure that may succeed if the same work is simply retried.

    The resilience layer (:mod:`repro.resilience`) retries cells that
    fail with a :class:`TransientError` subclass (or a dead worker
    process) up to the configured :class:`~repro.resilience.RetryPolicy`
    budget; every other exception is treated as deterministic and fails
    fast without retrying.
    """


class CellTimeoutError(TransientError):
    """A pipeline cell exceeded its wall-clock timeout budget.

    Timeouts are classified transient: a cell can blow its budget
    because of machine load rather than its own work, so it is worth
    one more attempt before the sweep gives up on it.
    """


class CacheIntegrityError(TransientError):
    """A memo cache file failed its integrity check.

    Raised when a cached JSON payload is truncated, unparseable,
    carries an unknown schema version, or fails its checksum.  The
    damaged file is quarantined and the cell recomputed, which is why
    this error is transient: a retry recomputes from scratch.
    """


class OverloadedError(TransientError):
    """The serve tier shed this request: compute capacity is full.

    Raised by the admission controller when the in-flight compute
    semaphore and its bounded wait queue are both exhausted (or the
    queue wait timed out).  Transient by definition — the whole point
    of shedding is that the same request succeeds once load subsides —
    and carries ``retry_after`` (seconds) so the HTTP layer can answer
    ``429`` with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class BreakerOpenError(TransientError):
    """A circuit breaker is open: the protected fault domain is sick.

    Raised instead of attempting work a breaker has declared failing.
    ``retry_after`` is the time until the breaker's next half-open
    probe window, surfaced as the HTTP ``Retry-After`` on the ``503``
    this maps to (unless the request can degrade to a predictor-only
    answer instead).
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class SweepFailure(ParallelExecutionError):
    """A sweep ended with cells that failed permanently.

    Carries the structured :class:`~repro.resilience.FailureReport` as
    ``report`` so callers can inspect exactly which cells failed, with
    how many attempts, and whether the failures were transient.
    Subclasses :class:`ParallelExecutionError` so pre-resilience call
    sites catching that type keep working.
    """

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        self.report = report


class SweepArgumentError(ValidationError):
    """A sweep argument that the sweep's ``jobs`` setting cannot honour.

    Retries and the per-cell timeout act only in the parallel
    precompute, so a ``jobs=1`` sweep rejects them rather than ignore
    them.  The CLI reports this as a usage error (exit code 2) and
    still lets a driver's own errors propagate.
    """
