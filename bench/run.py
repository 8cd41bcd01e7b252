"""End-to-end benchmark of the reordering pipeline and its serve tier.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--json OUT] [--repeat N]

Runs each selected workload (all four by default) in a fresh
``bench/workload.py`` subprocess, one at a time, and prints every
metric with its unit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.  The exit code is 0 only when every output checked out.

Isolation: each subprocess gets fresh temporary directories for
``REPRO_CACHE_DIR``, ``REPRO_SERVE_STORE`` and ``REPRO_RUNS_DIR`` and a
temporary working directory, all under ``bench/out/`` and removed
afterwards; ``PYTHONPATH`` points at this checkout's ``src/`` only, and
the engine / fault-injection overrides are removed from its environment.
So a run never reads committed memo files and never writes into the tree
outside ``bench/out/``.

``--repeat N`` runs the selection N times with seeds ``seed .. seed+N-1``;
``--json OUT`` appends one JSON line per workload run to OUT (the input
of ``bench/compare.py``).  ``--write-expected`` regenerates
``bench/expected/<workload>.json`` with the reference engines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("sweep-spmv", "sweep-spgemm", "sweep-tiny", "serve-mix")

#: Environment overrides a run must not inherit: engine selection and
#: fault injection would change what is measured.
SCRUBBED = ("PYTHONPATH", "REPRO_SIM_IMPL", "REPRO_REORDER_IMPL", "REPRO_FAULT_PLAN")

#: One workload subprocess may run this long before it is killed.
CHILD_TIMEOUT_S = 170


def run_workload(
    name: str, seed: int, seconds: float, trace: int, write_expected: bool = False
) -> Optional[Dict[str, object]]:
    """Run one workload subprocess; its JSON result, or ``None`` if it crashed."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        dirs = {key: os.path.join(scratch, key) for key in ("cwd", "cache", "store", "runs")}
        for path in dirs.values():
            os.mkdir(path)
        env = {key: value for key, value in os.environ.items() if key not in SCRUBBED}
        env.update(
            PYTHONPATH=os.path.join(ROOT, "src"),
            REPRO_CACHE_DIR=dirs["cache"],
            REPRO_SERVE_STORE=dirs["store"],
            REPRO_RUNS_DIR=dirs["runs"],
        )
        if write_expected:
            env.update(REPRO_SIM_IMPL="reference", REPRO_REORDER_IMPL="reference")
        command = [
            sys.executable,
            os.path.join(BENCH_DIR, "workload.py"),
            name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ] + (["--write-expected"] if write_expected else [])
        try:
            proc = subprocess.run(
                command + ["--t0", repr(time.time())],
                cwd=dirs["cwd"],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"{name}: killed after {CHILD_TIMEOUT_S}s", file=sys.stderr)
            return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the reordering pipeline and serve tier."
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measure passes for about this long (at least one pass)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run instead",
    )
    parser.add_argument("--json", metavar="OUT", help="append one JSON line per run")
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    parser.add_argument(
        "--write-expected", action="store_true",
        help="regenerate bench/expected/<workload>.json with the reference engines",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.write_expected:
        results = [run_workload(name, args.seed, 0, 0, write_expected=True) for name in names]
        return 0 if all(result and result["correct"] for result in results) else 1

    results = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        for name in names:
            result = run_workload(name, seed, args.seconds, args.trace)
            if result is None:
                return 2
            results.append((name, result))
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                shown = "null" if value is None else f"{value:.6g}"
                print(f"{name:<13} seed {seed:<4} {metric:<30} {shown:>12} {entry['unit']}")
            if args.json:
                with open(args.json, "a") as handle:
                    line = {"workload": name, "seed": seed, "trace": args.trace, **result}
                    handle.write(json.dumps(line) + "\n")

    if len(results) == 1:
        final = results[0][1]
    else:
        # Counts cover every run; metrics are each workload's last run.
        final = {
            "correct": all(result["correct"] for _, result in results),
            "attempted": sum(result["attempted"] for _, result in results),
            "failed": sum(result["failed"] for _, result in results),
            "metrics": {
                f"{name}.{metric}": entry
                for name, result in results
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
