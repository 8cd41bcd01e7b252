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
from repro.graphs.generators import dcsbm
from repro.graphs.graph import Graph
from repro.sparse.convert import coo_to_csr

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
    (non-corpus) graphs that pool workers cannot load by name, so the
    parallel executor has nothing to precompute here."""
    return []


def _sweep_graph(n: int) -> Graph:
    matrix = dcsbm(n, max(4, n // 256), 12.0, mu=0.3, theta_exponent=0.8, seed=9000 + n)
    return Graph(coo_to_csr(matrix))


def run(
    profile: str = "full",
    runner: Optional[ExperimentRunner] = None,
    techniques: Sequence[str] = TECHNIQUES,
) -> ExperimentReport:
    runner = runner if runner is not None else ExperimentRunner(profile)
    sizes = SWEEP_SIZES.get(profile, SWEEP_SIZES["full"])

    rows = []
    iteration_sums = {t: 0.0 for t in techniques}
    counted = {t: 0 for t in techniques}
    for n in sizes:
        # Generated on every run: the graph's structure keys its store
        # entries, so a changed generator can never hit an old point.
        name = f"fig9-dcsbm-{n}"
        runner.add_graph(name, _sweep_graph(n))
        random_run = runner.run(name, "random")
        row: list = [n, int(runner.graph(name).adjacency.nnz)]
        for technique_name in techniques:
            reordered = runner.run(name, technique_name)
            iterations = amortization_iterations(
                reordered.reorder_seconds,
                random_run.modeled_seconds,
                reordered.modeled_seconds,
            )
            row.extend([reordered.reorder_seconds, iterations])
            if iterations != float("inf"):
                iteration_sums[technique_name] += iterations
                counted[technique_name] += 1
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
