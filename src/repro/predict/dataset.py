"""Simulator-labelled training cells for the effectiveness predictor.

Each cell is one (matrix, technique) pair: the structural features of
the *original* matrix next to the simulator-measured effect of the
reordering — traffic reduction, runtime ratio and reordering cost —
relative to the ``original`` baseline order.  Cells run through the
memoized :class:`~repro.experiments.runner.ExperimentRunner`, so
building a dataset twice (or after a sweep already simulated the same
cells) is nearly free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentRunner
from repro.errors import ValidationError
from repro.predict.features import (
    FEATURE_NAMES,
    analytic_ideal_seconds,
    structural_features,
)

#: Techniques modelled by default — the serve tier's candidate list.
DEFAULT_TECHNIQUES = ("degsort", "rcm", "rabbit", "rabbit++")


@dataclass
class PredictorDataset:
    """Feature/target cells for one (kernel, platform) pair."""

    kernel: str
    platform: str
    techniques: Tuple[str, ...]
    feature_names: Tuple[str, ...] = FEATURE_NAMES
    #: One dict per (matrix, technique) cell; see :func:`build_dataset`.
    rows: List[Dict[str, object]] = field(default_factory=list)

    @property
    def matrices(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(str(row["matrix"]), None)
        return tuple(seen)

    def restrict(self, matrices: Sequence[str]) -> "PredictorDataset":
        """Sub-dataset containing only the named matrices."""
        keep = set(matrices)
        return PredictorDataset(
            kernel=self.kernel,
            platform=self.platform,
            techniques=self.techniques,
            feature_names=self.feature_names,
            rows=[row for row in self.rows if row["matrix"] in keep],
        )


def build_dataset(
    runner: ExperimentRunner,
    kernel: str = "spmv-csr",
    techniques: Sequence[str] = DEFAULT_TECHNIQUES,
    matrices: Optional[Sequence[str]] = None,
    policy: str = "lru",
) -> PredictorDataset:
    """Run the simulator across the corpus and collect labelled cells.

    For every matrix: one feature extraction (reading the graph's
    memoized RABBIT detection, shared with the runner's metrics and its
    RABBIT and RABBIT++ orderings), one baseline simulation, and one
    simulation per technique.
    """
    if not techniques:
        raise ValidationError("build_dataset needs at least one technique")
    names = list(matrices) if matrices is not None else runner.matrices()
    dataset = PredictorDataset(
        kernel=kernel,
        platform=runner.platform.name,
        techniques=tuple(techniques),
    )
    for matrix in names:
        graph = runner.graph(matrix)
        features = structural_features(graph, runner.platform)
        ideal = analytic_ideal_seconds(graph, kernel, runner.platform)
        baseline = runner.run(matrix, "original", kernel=kernel, policy=policy)
        for technique in techniques:
            record = runner.run(matrix, technique, kernel=kernel, policy=policy)
            traffic_ratio = (
                record.traffic_bytes / baseline.traffic_bytes
                if baseline.traffic_bytes
                else 1.0
            )
            runtime_ratio = (
                record.modeled_seconds / baseline.modeled_seconds
                if baseline.modeled_seconds
                else 1.0
            )
            dataset.rows.append(
                {
                    "matrix": matrix,
                    "technique": technique,
                    "features": features,
                    "traffic_reduction": 1.0 - traffic_ratio,
                    "runtime_ratio": runtime_ratio,
                    "reorder_seconds": runner.reorder_seconds(matrix, technique),
                    "baseline_norm_runtime": (
                        baseline.modeled_seconds / ideal if ideal else 1.0
                    ),
                    "baseline_modeled_seconds": baseline.modeled_seconds,
                    "measured_modeled_seconds": record.modeled_seconds,
                }
            )
    return dataset
