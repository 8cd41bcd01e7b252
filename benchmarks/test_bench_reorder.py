"""Benchmark-harness entry for the reordering engines (BENCH_reorder.json).

Times the vectorized reordering engines against their per-node loop
oracles — RABBIT detection plus every benchmarked technique end-to-end
— on the seeded smoke workload, asserts they produce identical outputs,
and writes the throughput comparison to ``BENCH_reorder.json``
(override the location with ``REPRO_BENCH_REORDER_OUT``).  The
full-size comparison — detection on the scale-16 ``soc-rmat`` corpus
matrix — runs via ``repro bench-reorder`` without ``--smoke``.

The smoke graphs are too small for stable speedups, so no speedup
floor is asserted here; the smoke run checks schema and correctness,
the full run checks performance.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.reorder.benchreorder import (
    BENCH_TECHNIQUES,
    DETECT_ROW,
    build_bench_graphs,
    run_bench,
)

OUT_ENV_VAR = "REPRO_BENCH_REORDER_OUT"


@pytest.fixture(scope="module")
def graphs():
    return build_bench_graphs(smoke=True)


def test_bench_reorder_smoke(graphs):
    detect_graph, technique_graph = graphs
    payload = run_bench(detect_graph, technique_graph, repeats=1)

    assert payload["results_match"] is True
    rows = {(r["name"], r["impl"]) for r in payload["results"]}
    expected_names = (DETECT_ROW,) + BENCH_TECHNIQUES
    assert rows == {
        (name, impl) for name in expected_names for impl in ("reference", "fast")
    }
    assert all(r["nodes_per_s"] > 0 for r in payload["results"])
    assert set(payload["speedups"]) == set(expected_names)
    assert payload["workloads"]["detection"]["n_nodes"] == detect_graph.n_nodes

    out_path = os.environ.get(OUT_ENV_VAR, "BENCH_reorder.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)

    print()
    print(f"wrote {out_path}")
    for result in payload["results"]:
        print(
            f"{result['name']:13s} {result['impl']:10s} "
            f"{result['nodes_per_s']:,.0f} nodes/s"
        )
    for name, speedup in payload["speedups"].items():
        print(f"{name}: fast = {speedup:.1f}x reference")
