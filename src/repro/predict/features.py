"""Cheap structural features for reordering-effectiveness prediction.

Every feature is computable from the *original* matrix structure plus
one RABBIT community detection — no candidate reordering, no trace, no
cache simulation — which is what makes the predictor orders of
magnitude cheaper than the brute-force evaluation it replaces.  It is
the graph's memoized detection, shared with its RABBIT orderings.  The
feature set follows arXiv 2506.10356: size/density, degree skew
(hub concentration), community insularity, bandwidth/span locality,
and working-set-to-cache footprint ratios.
"""

from __future__ import annotations

import math
from typing import Dict, Union

import numpy as np

from repro.community.rabbit import detect
from repro.errors import ValidationError
from repro.gpu.specs import PlatformSpec
from repro.graphs.graph import Graph
from repro.metrics.degree_stats import gini_coefficient
from repro.metrics.insularity import insular_node_fraction, insularity
from repro.metrics.locality import (
    average_neighbor_span,
    hub_cache_footprint_bytes,
    matrix_bandwidth,
)
from repro.metrics.skew import degree_skew
from repro.sparse.csr import CSRMatrix
from repro.trace.kernelspec import KernelSpec

#: Feature order of :func:`feature_vector`; model coefficients are
#: stored against these names, so append-only.
FEATURE_NAMES = (
    "log_nodes",
    "log_nnz",
    "avg_degree",
    "log_density",
    "skew",
    "gini",
    "insularity",
    "insular_fraction",
    "norm_bandwidth",
    "norm_span",
    "log_x_footprint_ratio",
    "log_hub_footprint_ratio",
)


def structural_features(
    matrix: Union[CSRMatrix, Graph],
    platform: PlatformSpec,
    element_bytes: int = 4,
) -> Dict[str, float]:
    """Feature dict (:data:`FEATURE_NAMES` keys) for one matrix.

    The community features read the graph's memoized RABBIT detection
    (:func:`~repro.community.rabbit.detect`): the only non-trivial cost
    of the extraction, paid once per graph object (a CSR input gets a
    new one).
    """
    graph = matrix if isinstance(matrix, Graph) else Graph(matrix)
    csr = graph.adjacency
    n = csr.n_rows
    nnz = csr.nnz
    if n == 0:
        raise ValidationError("structural features of an empty matrix are undefined")
    assignment = detect(graph).assignment
    degrees = np.asarray(graph.to_undirected().out_degrees(), dtype=np.int64)
    hub_count = max(1, n // 10)
    hubs = np.argsort(degrees, kind="stable")[-hub_count:]
    l2 = float(platform.l2_capacity_bytes)
    x_bytes = float(n * element_bytes)
    hub_bytes = float(
        hub_cache_footprint_bytes(
            hubs, element_bytes=element_bytes, line_bytes=platform.line_bytes
        )
    )
    return {
        "log_nodes": math.log(n),
        "log_nnz": math.log(nnz + 1),
        "avg_degree": nnz / n,
        "log_density": math.log((nnz + 1) / (float(n) * n)),
        "skew": degree_skew(graph) if nnz else 0.0,
        "gini": gini_coefficient(degrees) if degrees.size else 0.0,
        "insularity": insularity(graph, assignment),
        "insular_fraction": insular_node_fraction(graph, assignment),
        "norm_bandwidth": matrix_bandwidth(csr) / n,
        "norm_span": average_neighbor_span(csr) / n,
        "log_x_footprint_ratio": math.log(x_bytes / l2 + 1e-12),
        "log_hub_footprint_ratio": math.log(hub_bytes / l2 + 1e-12),
    }


def feature_vector(features: Dict[str, float]) -> np.ndarray:
    """Feature dict -> ordered vector (the model's input layout)."""
    try:
        return np.array([float(features[name]) for name in FEATURE_NAMES], dtype=np.float64)
    except KeyError as exc:
        raise ValidationError(f"feature dict is missing {exc.args[0]!r}") from None


def analytic_compulsory_bytes(
    matrix: Union[CSRMatrix, Graph],
    kernel: Union[str, KernelSpec],
    element_bytes: int = 4,
) -> int:
    """Closed-form compulsory traffic of ``kernel`` on ``matrix``.

    Mirrors the per-builder ``analytic_compulsory_bytes`` formulas in
    :mod:`repro.trace.kernel_traces` without building a trace, so the
    predictor can turn predicted normalized run times into absolute
    seconds.  SpGEMM is the one kernel needing real work (its output
    size requires the symbolic phase, still far cheaper than a trace).
    """
    spec = KernelSpec.coerce(kernel)
    csr = matrix.adjacency if isinstance(matrix, Graph) else matrix
    n = csr.n_rows
    nnz = csr.nnz
    if spec.kind == "spmv-csr":
        return (2 * n + (n + 1) + 2 * nnz) * element_bytes
    if spec.kind == "spmv-coo":
        return (2 * n + 3 * nnz) * element_bytes
    if spec.kind == "spmm-csr":
        return ((n + 1) + 2 * nnz + 2 * n * spec.k) * element_bytes
    if spec.kind == "spgemm-csr":
        from repro.trace.kernel_traces import spgemm_csr_structure

        c_row_nnz, _flops = spgemm_csr_structure(csr)
        return (3 * (n + 1) + 4 * nnz + 2 * int(c_row_nnz.sum())) * element_bytes
    raise ValidationError(
        f"no analytic compulsory-traffic formula for kernel kind {spec.kind!r}"
    )


def analytic_ideal_seconds(
    matrix: Union[CSRMatrix, Graph],
    kernel: Union[str, KernelSpec],
    platform: PlatformSpec,
    element_bytes: int = 4,
) -> float:
    """Analytic compulsory traffic moved at achievable bandwidth."""
    compulsory = analytic_compulsory_bytes(matrix, kernel, element_bytes=element_bytes)
    return compulsory / platform.achievable_bandwidth_bytes_per_s
