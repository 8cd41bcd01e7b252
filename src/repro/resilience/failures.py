"""Structured failure accounting for graceful-degradation sweeps.

Under ``--keep-going`` a sweep records every permanently-failed cell in
a :class:`FailureReport` instead of aborting; the report renders a loud
end-of-run summary and serializes to JSON for the run ledger.  The invariant the report exists to uphold: **no code path
silently drops a cell** — a cell either completes or appears here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List


@dataclass
class CellFailure:
    """One cell (or driver) that failed after its retry budget."""

    label: str
    error_type: str
    message: str
    attempts: int
    transient: bool
    traceback: str = ""

    def to_json(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class FailureReport:
    """Every permanent failure one sweep accumulated."""

    failures: List[CellFailure] = field(default_factory=list)

    def add(self, failure: CellFailure) -> None:
        self.failures.append(failure)

    def __len__(self) -> int:
        return len(self.failures)

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __iter__(self) -> Iterator[CellFailure]:
        return iter(self.failures)

    def labels(self) -> List[str]:
        return [failure.label for failure in self.failures]

    def summary_text(self) -> str:
        """Loud, human-readable end-of-run summary."""
        if not self.failures:
            return "failure report: 0 permanently failed cells"
        lines = [
            f"failure report: {len(self.failures)} permanently failed "
            f"cell(s) — results are PARTIAL"
        ]
        for failure in self.failures:
            kind = "transient, retries exhausted" if failure.transient else "deterministic"
            lines.append(
                f"  FAILED {failure.label}: {failure.error_type}: "
                f"{failure.message} ({kind}, {failure.attempts} attempt(s))"
            )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {"failures": [failure.to_json() for failure in self.failures]}
