"""repro.resilience — keep multi-minute sweeps alive through faults.

A full-profile reproduction sweep is a long multi-process job; this
package is what lets it survive crashed workers, wall-clock blowups,
corrupted store entries and outright kills.  A killed sweep needs no
checkpoint of its own: every finished cell is an entry in the result
store, so running the same command again against the same store skips
them and computes only the rest.

* **retry/timeout policy** (:class:`RetryPolicy`, :func:`cell_deadline`,
  :func:`is_transient`) — transient failures retry with exponential
  backoff, deterministic ones fail fast; both act in the parallel
  precompute, so a sweep rejects them at ``jobs=1``;
* **graceful degradation** (:class:`FailureReport`) — under
  ``--keep-going`` failed cells are recorded, not fatal, and the sweep
  returns the report, which the CLI prints and keeps in the run ledger;
* **cache integrity** (:mod:`repro.resilience.integrity`) — result-store
  entries carry a schema-version + checksum envelope; damaged entries
  are quarantined to ``<root>/quarantine/`` and recomputed;
* **fault injection** (:class:`FaultPlan`, :func:`fault_point`) — a
  deterministic harness (``REPRO_FAULT_PLAN``) that exercises all of
  the above in tests and CI chaos jobs.

Observability: ``resilience.retries``, ``resilience.quarantined``,
``resilience.cells_failed`` (and friends) count every recovery action.
"""

from repro.resilience.failures import CellFailure, FailureReport
from repro.resilience.faults import (
    ENV_VAR,
    FaultInjector,
    FaultPlan,
    FaultRule,
    fault_point,
    install_injector,
    reset_faults,
)
from repro.resilience.integrity import (
    SCHEMA_VERSION,
    CacheScan,
    LegacyCacheEntry,
    load_or_quarantine,
    load_verified,
    payload_checksum,
    quarantine_file,
    quarantine_path,
    unwrap_document,
    wrap_payload,
)
from repro.resilience.policy import (
    Deadline,
    RetryPolicy,
    cell_deadline,
    check_deadline,
    current_deadline,
    is_transient,
)

__all__ = [
    "CacheScan",
    "CellFailure",
    "Deadline",
    "ENV_VAR",
    "FailureReport",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "LegacyCacheEntry",
    "RetryPolicy",
    "SCHEMA_VERSION",
    "cell_deadline",
    "check_deadline",
    "current_deadline",
    "fault_point",
    "install_injector",
    "is_transient",
    "load_or_quarantine",
    "load_verified",
    "payload_checksum",
    "quarantine_file",
    "quarantine_path",
    "reset_faults",
    "unwrap_document",
    "wrap_payload",
]
