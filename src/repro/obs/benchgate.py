"""Perf-regression gate over the BENCH payloads (``repro bench --check``).

The two microbenchmarks (``repro bench-sim`` / ``repro bench-reorder``)
emit JSON payloads whose ``speedups`` map records how much faster the
vectorized engine is than its reference oracle on a pinned workload
(e.g. ``{"lru": 12.4, "rabbit": 8.1}``).  Those *ratios* are the gated
metric: unlike absolute seconds they are largely machine-portable, so a
baseline committed from one machine still catches a real algorithmic
regression (an engine slowing to loop speed drops the ratio to ~1x) on
another.

:func:`compare_payloads` flags a metric when::

    fresh < baseline * (1 - tolerance)

with a generous default tolerance (ratios still jitter with load).  A
metric present in the baseline but missing fresh is a regression (a
renamed or dropped workload must be re-baselined explicitly via
``repro bench --check --update``).  A correctness flag
(``stats_match``/``results_match``) that is ``false`` fails the gate
outright regardless of tolerance.  Improvements are reported but never
fail.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Fresh speedup may drop to (1 - tolerance) x baseline before failing.
DEFAULT_TOLERANCE = 0.4

#: Correctness flags found in BENCH payloads (either name, per payload).
_MATCH_KEYS = ("stats_match", "results_match")


@dataclass
class MetricDelta:
    """One gated metric: baseline vs fresh speedup ratio."""

    name: str
    baseline: Optional[float]
    fresh: Optional[float]
    regressed: bool
    note: str = ""

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "baseline": self.baseline,
            "fresh": self.fresh,
            "regressed": self.regressed,
            "note": self.note,
        }


@dataclass
class GateResult:
    """Outcome of gating one BENCH payload against its baseline."""

    label: str
    deltas: List[MetricDelta] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.errors and not any(d.regressed for d in self.deltas)

    def to_json(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "passed": self.passed,
            "errors": list(self.errors),
            "deltas": [d.to_json() for d in self.deltas],
        }


def load_payload(path: str) -> Optional[Dict[str, object]]:
    """A BENCH JSON payload, or ``None`` if unreadable/malformed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _speedups(payload: Dict[str, object]) -> Dict[str, float]:
    raw = payload.get("speedups", {})
    if not isinstance(raw, dict):
        return {}
    out: Dict[str, float] = {}
    for name, value in raw.items():
        try:
            out[str(name)] = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            continue
    return out


def compare_payloads(
    label: str,
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> GateResult:
    """Gate ``fresh`` against ``baseline``; see module docstring."""
    result = GateResult(label=label)
    for key in _MATCH_KEYS:
        if fresh.get(key) is False:
            result.errors.append(
                f"{label}: correctness flag {key} is false — fast and "
                "reference engines diverged"
            )
    base_speedups = _speedups(baseline)
    fresh_speedups = _speedups(fresh)
    if not base_speedups:
        result.errors.append(f"{label}: baseline has no speedups map")
    floor = 1.0 - tolerance
    for name in sorted(base_speedups):
        base = base_speedups[name]
        if name not in fresh_speedups:
            result.deltas.append(
                MetricDelta(
                    name=name, baseline=base, fresh=None, regressed=True,
                    note="metric missing from fresh run",
                )
            )
            continue
        new = fresh_speedups[name]
        regressed = new < base * floor
        if regressed:
            note = (
                f"speedup fell {base:.2f}x -> {new:.2f}x "
                f"(floor {base * floor:.2f}x at tolerance {tolerance:.0%})"
            )
        elif new > base:
            note = f"improved {base:.2f}x -> {new:.2f}x"
        else:
            note = "within tolerance"
        result.deltas.append(
            MetricDelta(
                name=name, baseline=base, fresh=new,
                regressed=regressed, note=note,
            )
        )
    for name in sorted(set(fresh_speedups) - set(base_speedups)):
        result.deltas.append(
            MetricDelta(
                name=name, baseline=None, fresh=fresh_speedups[name],
                regressed=False, note="new metric (not in baseline)",
            )
        )
    return result


def check_files(
    pairs: List[Tuple[str, str, str]],
    tolerance: float = DEFAULT_TOLERANCE,
    strict: bool = False,
) -> Tuple[List[GateResult], List[str]]:
    """Gate several ``(label, baseline_path, fresh_path)`` file pairs.

    Returns ``(results, skipped)``.  A missing/unreadable *fresh* file
    is a skip-with-warning unless ``strict`` (CI passes ``--strict`` so
    a benchmark that silently failed to produce output cannot pass the
    gate); a missing *baseline* is always an error — the gate exists to
    compare against one.
    """
    results: List[GateResult] = []
    skipped: List[str] = []
    for label, baseline_path, fresh_path in pairs:
        baseline = load_payload(baseline_path) if os.path.exists(baseline_path) else None
        fresh = load_payload(fresh_path) if os.path.exists(fresh_path) else None
        if baseline is None:
            result = GateResult(label=label)
            result.errors.append(
                f"{label}: baseline {baseline_path} missing or unreadable "
                "(seed it with: repro bench --check --update)"
            )
            results.append(result)
            continue
        if fresh is None:
            message = f"{label}: fresh payload {fresh_path} missing or unreadable"
            if strict:
                result = GateResult(label=label)
                result.errors.append(message + " (--strict)")
                results.append(result)
            else:
                skipped.append(message)
            continue
        results.append(compare_payloads(label, baseline, fresh, tolerance=tolerance))
    return results, skipped


def format_gate_report(
    results: List[GateResult], skipped: List[str]
) -> str:
    """Human-readable gate report (one line per metric)."""
    lines: List[str] = []
    for result in results:
        verdict = "PASS" if result.passed else "FAIL"
        lines.append(f"[{verdict}] {result.label}")
        for error in result.errors:
            lines.append(f"  ERROR {error}")
        for delta in result.deltas:
            base = "-" if delta.baseline is None else f"{delta.baseline:.2f}x"
            new = "-" if delta.fresh is None else f"{delta.fresh:.2f}x"
            flag = "REGRESSED" if delta.regressed else "ok"
            lines.append(
                f"  {delta.name:16s} baseline {base:>8}  fresh {new:>8}  "
                f"{flag}  {delta.note}"
            )
    for message in skipped:
        lines.append(f"[SKIP] {message}")
    if not results and not skipped:
        lines.append("(nothing to check)")
    return "\n".join(lines)
