"""Figure 9: matrix-reordering cost as matrix size grows.

The paper shows GORDER's pre-processing time scaling far worse than
RABBIT's or RABBIT++'s, then quantifies amortization: starting from a
RANDOM order, GORDER needs ~7467 SpMV iterations to pay for itself vs.
741 for RABBIT and 1047 for RABBIT++.

This driver times the techniques on a fixed-family size sweep (DC-SBM
instances of doubling size) and computes amortization iterations from
the performance model's kernel times.  The Python-vs-C++ substrate
inflates absolute iteration counts (the reordering runs in pure
Python); the ordering GORDER >> RABBIT++ > RABBIT is the reproducible
shape.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.report import ExperimentReport
from repro.experiments.runner import ExperimentRunner
from repro.gpu.amortization import amortization_iterations
from repro.gpu.perf import model_run
from repro.graphs.generators import dcsbm
from repro.graphs.graph import Graph
from repro.reorder.base import reorder_with_timing
from repro.reorder.registry import make_technique
from repro.sparse.convert import coo_to_csr
from repro.sparse.permute import permute_symmetric
from repro.trace.kernel_traces import spmv_csr_trace

TECHNIQUES = ("gorder", "rabbit", "rabbit++")

PAPER = {
    "amortization_iterations_gorder": 7467.0,
    "amortization_iterations_rabbit": 741.0,
    "amortization_iterations_rabbit++": 1047.0,
}

#: Node counts of the sweep family (doubling sizes).
SWEEP_SIZES = {
    "full": (2048, 4096, 8192, 16384, 32768),
    "bench": (1024, 2048, 4096, 8192),
    "test": (256, 512, 1024),
}


def plan(profile: str = "full"):
    """No shareable pipeline cells: the size sweep runs on generated
    (non-corpus) graphs with its own ``fig9-*`` memo entries, so the
    parallel executor has nothing to precompute here."""
    return []


def _sweep_graph(n: int) -> Graph:
    matrix = dcsbm(n, max(4, n // 256), 12.0, mu=0.3, theta_exponent=0.8, seed=9000 + n)
    return Graph(coo_to_csr(matrix))


def _sweep_cache_path(runner: ExperimentRunner, platform, n: int, technique: str) -> str:
    return runner._cache_path("fig9", f"{platform.name}|{n}|{technique}")


def _sweep_point(runner: ExperimentRunner, platform, n: int, technique: str):
    """Load a cached sweep measurement, or None.

    Reads through the runner's verified loader, so a damaged sweep memo
    is quarantined and re-measured instead of crashing the driver.
    """
    path = _sweep_cache_path(runner, platform, n, technique)
    point = runner._load_payload(path, kind="fig9")
    if point is None:
        return None
    if point["iterations"] is None:
        point["iterations"] = float("inf")
    return point


def _measure_sweep_point(
    runner: ExperimentRunner, platform, n: int, graph: Graph, technique: str
):
    """Time one (size, technique) sweep cell and persist it."""
    random_perm = make_technique("random").compute(graph)
    random_csr = permute_symmetric(graph.adjacency, random_perm)
    random_run = model_run(
        spmv_csr_trace(random_csr, line_bytes=platform.line_bytes), platform
    )
    timed = reorder_with_timing(make_technique(technique), graph)
    reordered = permute_symmetric(graph.adjacency, timed.permutation)
    reordered_run = model_run(
        spmv_csr_trace(reordered, line_bytes=platform.line_bytes), platform
    )
    iterations = amortization_iterations(
        timed.seconds, random_run.modeled_seconds, reordered_run.modeled_seconds
    )
    point = {
        "n": n,
        "nnz": int(graph.adjacency.nnz),
        "technique": technique,
        "seconds": timed.seconds,
        "iterations": None if iterations == float("inf") else iterations,
    }
    runner._write_json(_sweep_cache_path(runner, platform, n, technique), point)
    point["iterations"] = iterations
    return point


def run(
    profile: str = "full",
    runner: Optional[ExperimentRunner] = None,
    techniques: Sequence[str] = TECHNIQUES,
) -> ExperimentReport:
    runner = runner if runner is not None else ExperimentRunner(profile)
    sizes = SWEEP_SIZES.get(profile, SWEEP_SIZES["full"])
    platform = runner.platform

    rows = []
    iteration_sums = {t: 0.0 for t in techniques}
    counted = {t: 0 for t in techniques}
    for n in sizes:
        graph = None  # built lazily; cached sweep points never need it
        row: list = [n]
        nnz_cell = None
        for technique_name in techniques:
            point = _sweep_point(runner, platform, n, technique_name)
            if point is None:
                if graph is None:
                    graph = _sweep_graph(n)
                point = _measure_sweep_point(
                    runner, platform, n, graph, technique_name
                )
            nnz_cell = point["nnz"]
            iterations = point["iterations"]
            row.extend([point["seconds"], iterations])
            if iterations != float("inf"):
                iteration_sums[technique_name] += iterations
                counted[technique_name] += 1
        row.insert(1, nnz_cell)
        rows.append(row)

    headers = ["n", "nnz"]
    for technique_name in techniques:
        headers.extend([f"{technique_name}_sec", f"{technique_name}_iters"])
    summary = {}
    for technique_name in techniques:
        if counted[technique_name]:
            summary[f"amortization_iterations_{technique_name}"] = (
                iteration_sums[technique_name] / counted[technique_name]
            )
    # Scaling shape: cost ratio between largest and smallest sweep point.
    if len(rows) >= 2:
        for offset, technique_name in enumerate(techniques):
            column = 2 + 2 * offset
            small = max(1e-9, float(rows[0][column]))
            summary[f"cost_growth_{technique_name}"] = float(rows[-1][column]) / small
    return ExperimentReport(
        experiment="fig9",
        title="Reordering cost vs matrix size, with amortization iterations",
        headers=headers,
        rows=rows,
        summary=summary,
        paper_reference=PAPER,
    )
