"""High-level convenience API.

Most downstream users want three operations: "reorder this matrix with
technique X", "how good is this ordering on the modeled platform", and
"is reordering this matrix worth it at all".  These helpers wire the
pipeline together so none of them requires touching the trace,
simulator or predictor layers directly.

:func:`recommend` is the headline of the redesign: it answers the
worth-it question from cheap structural features alone — no candidate
reordering is computed, no trace is built, no cache is simulated.  The
same :class:`Recommendation` shape backs the serve tier's ``auto``
technique and ``/v1/recommend`` endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ValidationError
from repro.gpu.amortization import amortization_iterations
from repro.gpu.perf import KernelRunModel, model_run
from repro.gpu.specs import PlatformSpec, SCALED_A6000
from repro.graphs.graph import Graph
from repro.reorder.base import ReorderingTechnique, reorder_with_timing
from repro.reorder.registry import make_technique
from repro.sparse.csr import CSRMatrix
from repro.sparse.permute import permute_symmetric
from repro.trace.kernelspec import KernelSpec

#: The no-reordering reference order.
BASELINE_TECHNIQUE = "original"

#: Candidates within this fraction of the best predicted total cost are
#: interchangeable; the first (cheapest-to-compute) one wins.
CHEAP_TOLERANCE = 0.01


def reorder_matrix(
    matrix: Union[CSRMatrix, Graph],
    technique: Union[str, ReorderingTechnique],
) -> CSRMatrix:
    """Apply a reordering technique and return the permuted matrix."""
    graph = matrix if isinstance(matrix, Graph) else Graph(matrix)
    if isinstance(technique, str):
        technique = make_technique(technique)
    perm = technique.compute(graph)
    return permute_symmetric(graph.adjacency, perm)


def evaluate_ordering(
    matrix: Union[CSRMatrix, Graph],
    permutation: Optional[Union[np.ndarray, str, ReorderingTechnique]] = None,
    kernel: Union[str, KernelSpec] = "spmv-csr",
    platform: PlatformSpec = SCALED_A6000,
    policy: str = "lru",
) -> KernelRunModel:
    """Model one kernel run of (optionally permuted) ``matrix``.

    ``permutation`` is either ``perm[old_id] == new_id``, a technique
    name (or :class:`ReorderingTechnique`) whose permutation is
    computed here, or ``None`` to evaluate the matrix as-is.
    ``kernel`` is a :class:`KernelSpec` or a canonical kernel name
    (validated by :meth:`KernelSpec.parse`).  Returns the full
    :class:`KernelRunModel`, whose ``normalized_traffic`` /
    ``normalized_runtime`` properties correspond to the paper's
    headline metrics.
    """
    spec = KernelSpec.coerce(kernel)
    csr = matrix.adjacency if isinstance(matrix, Graph) else matrix
    if isinstance(permutation, (str, ReorderingTechnique)):
        graph = matrix if isinstance(matrix, Graph) else Graph(matrix)
        technique = (
            make_technique(permutation)
            if isinstance(permutation, str)
            else permutation
        )
        permutation = technique.compute(graph)
    if permutation is not None:
        csr = permute_symmetric(csr, permutation)
    trace = spec.build_trace(csr, platform)
    return model_run(trace, platform, policy=policy)


@dataclass
class ReorderEvaluation:
    """Outcome of :func:`reorder_and_evaluate` for one technique."""

    technique: str
    permutation: np.ndarray
    matrix: CSRMatrix
    model: KernelRunModel
    reorder_seconds: float
    baseline: Optional[KernelRunModel] = None

    @property
    def speedup(self) -> Optional[float]:
        """Baseline-over-reordered modeled time (requires baseline)."""
        if self.baseline is None or self.model.modeled_seconds == 0:
            return None
        return self.baseline.modeled_seconds / self.model.modeled_seconds

    @property
    def break_even_iterations(self) -> Optional[float]:
        """Iterations needed to amortize the reordering cost.

        ``None`` when no baseline was evaluated; ``inf`` when the
        reordering does not improve the kernel.
        """
        if self.baseline is None:
            return None
        return amortization_iterations(
            self.reorder_seconds,
            self.baseline.modeled_seconds,
            self.model.modeled_seconds,
        )


def reorder_and_evaluate(
    matrix: Union[CSRMatrix, Graph],
    technique: Union[str, ReorderingTechnique],
    kernel: Union[str, KernelSpec] = "spmv-csr",
    platform: PlatformSpec = SCALED_A6000,
    policy: str = "lru",
    compare_baseline: bool = True,
) -> ReorderEvaluation:
    """Reorder ``matrix`` with ``technique`` and model the result.

    Times the permutation computation (detection included) with
    :func:`reorder_with_timing` and, when ``compare_baseline`` is set,
    also models the un-reordered matrix so ``speedup`` and
    ``break_even_iterations`` are available.
    """
    graph = matrix if isinstance(matrix, Graph) else Graph(matrix)
    name = technique if isinstance(technique, str) else technique.name
    if isinstance(technique, str):
        technique = make_technique(technique)
    timed = reorder_with_timing(technique, graph)
    perm = timed.permutation
    reordered = permute_symmetric(graph.adjacency, perm)
    model = evaluate_ordering(reordered, kernel=kernel, platform=platform, policy=policy)
    baseline = None
    if compare_baseline:
        baseline = evaluate_ordering(graph, kernel=kernel, platform=platform, policy=policy)
    return ReorderEvaluation(
        technique=name,
        permutation=perm,
        matrix=reordered,
        model=model,
        reorder_seconds=timed.seconds,
        baseline=baseline,
    )


@dataclass
class Recommendation:
    """Predictor-backed answer to "is reordering this matrix worth it?".

    Produced without computing a single candidate reordering: every
    number is a structural-feature prediction anchored to absolute
    seconds by the kernel's closed-form compulsory traffic.  ``chosen``
    is :data:`BASELINE_TECHNIQUE` when no candidate is predicted to
    beat the no-reordering baseline over the ``iterations`` horizon.
    """

    kernel: str
    platform: str
    iterations: int
    #: Predicted per-run modeled seconds of the original order.
    baseline_seconds: float
    #: One row per candidate: ``technique``, ``reorder_seconds``,
    #: ``modeled_seconds``, ``speedup``, ``traffic_reduction``,
    #: ``total_seconds``, ``amortization_iterations`` (None = never).
    candidates: List[Dict[str, object]] = field(default_factory=list)
    chosen: str = BASELINE_TECHNIQUE
    reorder_worth_it: bool = False

    @property
    def best(self) -> Optional[Dict[str, object]]:
        """The chosen candidate's row (``None`` for the baseline)."""
        for row in self.candidates:
            if row["technique"] == self.chosen:
                return row
        return None

    def to_json(self) -> Dict[str, object]:
        """Serve-schema recommendation dict (``predicted: True``)."""
        return {
            "iterations": self.iterations,
            "predicted": True,
            "baseline": {
                "technique": BASELINE_TECHNIQUE,
                "modeled_seconds": self.baseline_seconds,
                "total_seconds": self.iterations * self.baseline_seconds,
            },
            "candidates": self.candidates,
            "reorder_worth_it": self.reorder_worth_it,
            "chosen": self.chosen,
        }


def recommendation_from_features(
    predictor,
    features: Dict[str, float],
    ideal_seconds: float,
    iterations: int = 100,
    candidates: Optional[Sequence[str]] = None,
) -> Recommendation:
    """Predictor core shared by :func:`recommend` and the serve tier.

    ``features`` comes from
    :func:`repro.predict.features.structural_features` and
    ``ideal_seconds`` from
    :func:`repro.predict.features.analytic_ideal_seconds` — the only
    two per-matrix computations on the whole path.  Total cost of a
    candidate over the horizon is ``reorder_seconds + iterations *
    modeled_seconds``; the cheapest-to-compute candidate within
    :data:`CHEAP_TOLERANCE` of the best total wins; if no candidate is
    predicted to beat the baseline, reordering is not worth paying for.
    """
    if iterations < 1:
        raise ValidationError(f"iterations must be >= 1, got {iterations}")
    names = tuple(candidates) if candidates is not None else predictor.techniques
    baseline_seconds = ideal_seconds * predictor.predict_baseline_norm_runtime(features)
    baseline_total = iterations * baseline_seconds
    rows: List[Dict[str, object]] = []
    for candidate in names:
        cell = predictor.predict_cell(features, candidate)
        modeled = baseline_seconds * max(cell["runtime_ratio"], 1e-12)
        reorder_seconds = max(cell["reorder_seconds"], 0.0)
        amort = amortization_iterations(reorder_seconds, baseline_seconds, modeled)
        rows.append(
            {
                "technique": candidate,
                "reorder_seconds": reorder_seconds,
                "modeled_seconds": modeled,
                "speedup": baseline_seconds / modeled,
                "traffic_reduction": cell["traffic_reduction"],
                "total_seconds": reorder_seconds + iterations * modeled,
                "amortization_iterations": (
                    None if amort == float("inf") else amort
                ),
            }
        )
    chosen = BASELINE_TECHNIQUE
    worth_it = False
    if rows:
        best_total = min(float(row["total_seconds"]) for row in rows)
        worth_it = best_total < baseline_total
        if worth_it:
            for row in rows:  # candidates are ordered lightweight-first
                if float(row["total_seconds"]) <= best_total * (1 + CHEAP_TOLERANCE):
                    chosen = str(row["technique"])
                    break
    return Recommendation(
        kernel=predictor.kernel,
        platform=predictor.platform,
        iterations=iterations,
        baseline_seconds=baseline_seconds,
        candidates=rows,
        chosen=chosen,
        reorder_worth_it=worth_it,
    )


def recommend(
    matrix: Union[CSRMatrix, Graph],
    kernel: Union[str, KernelSpec] = "spmv-csr",
    profile: str = "bench",
    iterations: int = 100,
    candidates: Optional[Sequence[str]] = None,
    predictor=None,
) -> Recommendation:
    """Should this matrix be reordered, and with which technique?

    Runs zero candidate reorderings: one community detection (for the
    insularity features), one closed-form compulsory-traffic
    computation, then a handful of dot products through the pretrained
    effectiveness predictor for ``(profile, kernel)``.  When no
    pretrained coefficient set is committed for that pair, one is
    fitted on the profile's corpus (slow the first time, cached by the
    experiment runner thereafter).
    """
    from repro.gpu.specs import scaled_platform
    from repro.predict.features import analytic_ideal_seconds, structural_features
    from repro.predict.pretrained import load_pretrained
    from repro.predict.validate import fit_predictor

    spec = KernelSpec.coerce(kernel)
    if predictor is None:
        predictor = load_pretrained(profile, spec.name)
    if predictor is None:
        predictor = fit_predictor(profile=profile, kernel=spec.name)
    platform = scaled_platform(profile)
    graph = matrix if isinstance(matrix, Graph) else Graph(matrix)
    features = structural_features(graph, platform)
    ideal = analytic_ideal_seconds(graph, spec, platform)
    return recommendation_from_features(
        predictor,
        features,
        ideal,
        iterations=iterations,
        candidates=candidates,
    )
