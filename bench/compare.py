"""Compare two sets of benchmark runs metric by metric.

    python3 bench/compare.py A.jsonl B.jsonl

Each file holds the JSON lines ``bench/run.py --json OUT`` appends (use
``--repeat N`` for N runs).  For every end-to-end metric of
``BENCHMARK.json`` on every workload, prints each set's median and
quartiles, the change of B's median against A's, and a verdict:

* ``ok`` — B is no worse than A by more than the metric's bound;
* ``REGRESSION`` — B is worse by more than the bound;
* ``unresolved`` — a set's quartile spread (``(q3 - q1) / median``)
  exceeds the bound, so the runs cannot tell; unless every run of B is
  better than every run of A, which reads ``better``.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over the untraced runs in ``path``."""
    values: Dict[Tuple[str, str], List[float]] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            if run.get("trace"):
                continue
            for metric, entry in run["metrics"].items():
                values.setdefault((run["workload"], metric), []).append(float(entry["value"]))
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: List[float], b: List[float], bound: float, better: str) -> Tuple[str, float]:
    """Verdict for B against A and B's relative change in the worse direction."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (qb[1] - qa[1]) / qa[1]
    if any((q3 - q1) / median > bound for q1, median, q3 in (qa, qb)):
        b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("better" if b_wins else "unresolved"), worse
    return ("REGRESSION" if worse > bound else "ok"), worse


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of bench/run.py runs.")
    parser.add_argument("a", help="baseline JSON lines")
    parser.add_argument("b", help="candidate JSON lines")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    workloads = [w["name"] for w in spec["workloads"]]

    def show(values: List[float]) -> str:
        q1, median, q3 = quartiles(values)
        return f"{median:10.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"

    print(f"{'workload':<13} {'metric':<12} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    regressed = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_runs or key not in b_runs:
                continue
            a, b = a_runs[key], b_runs[key]
            result, worse = verdict(a, b, metric["bound"], metric["better"])
            regressed |= result == "REGRESSION"
            print(f"{workload:<13} {metric['name']:<12} {show(a):>34} {show(b):>34} "
                  f"{worse:>+9.1%} {metric['bound']:>6.0%}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
