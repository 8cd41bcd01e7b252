"""Extension: SpGEMM reordering sweep with cluster-wise computation.

Not a paper artifact — the SpGEMM workload axis from "Improving SpGEMM
Performance Through Matrix Reordering and Cluster-wise Computation"
(arXiv 2507.21253).  For every corpus matrix and reordering technique
the driver simulates the ``spgemm-csr`` (Gustavson CSR x CSR) kernel
under the default sequential schedule and under the paper's
cluster-wise schedule, which sorts each row-cluster's A entries by
column so repeated B-row walks coalesce in cache.  Two questions:

1. Does community reordering help SpGEMM the way it helps SpMV?
2. How much of the win can the clustered schedule recover *without*
   reordering (and how do the two compose)?
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.report import ExperimentReport, arithmetic_mean
from repro.experiments.runner import ExperimentRunner

TECHNIQUES = ("original", "degsort", "rcm", "rabbit", "rabbit++")
SCHEDULES = ("sequential", "clustered")


def run(
    profile: str = "bench",
    runner: Optional[ExperimentRunner] = None,
    matrices: Optional[Sequence[str]] = None,
    techniques: Sequence[str] = TECHNIQUES,
) -> ExperimentReport:
    base = runner if runner is not None else ExperimentRunner(profile)
    clustered = ExperimentRunner(
        base.profile,
        platform=base.platform,
        cache_dir=base.cache_dir,
        use_cache=base.use_cache,
        schedule="clustered",
    )
    names = list(matrices) if matrices is not None else base.matrices()[:6]

    rows = []
    means = {(s, t): [] for s in SCHEDULES for t in techniques}
    for matrix in names:
        row = [matrix]
        for technique in techniques:
            sequential = base.run(matrix, technique, kernel="spgemm-csr").normalized_traffic
            clust = clustered.run(matrix, technique, kernel="spgemm-csr").normalized_traffic
            row.extend([sequential, clust])
            means[("sequential", technique)].append(sequential)
            means[("clustered", technique)].append(clust)
        rows.append(row)

    headers = ["matrix"]
    for technique in techniques:
        headers.extend([f"{technique}-seq", f"{technique}-clu"])
    summary = {}
    for (schedule, technique), values in means.items():
        summary[f"mean_{technique}_{schedule}"] = arithmetic_mean(values)
    # Traffic the clustered schedule saves on the unordered matrix vs.
    # what the best reordering saves under the sequential schedule.
    if "original" in techniques:
        summary["mean_clustered_gain_original"] = arithmetic_mean(
            [
                seq / clu if clu else 1.0
                for seq, clu in zip(
                    means[("sequential", "original")], means[("clustered", "original")]
                )
            ]
        )
    return ExperimentReport(
        experiment="spgemm-sweep",
        title="SpGEMM (CSR x CSR) traffic: reordering x cluster-wise schedule",
        headers=headers,
        rows=rows,
        summary=summary,
    )
