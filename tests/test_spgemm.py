"""SpGEMM (Gustavson CSR x CSR) workload: structure vs scipy, trace
invariants, the cluster-wise schedule win, and pipeline integration."""

from __future__ import annotations

import numpy as np
import pytest

scipy_sparse = pytest.importorskip("scipy.sparse")

from repro import evaluate_ordering, load_graph
from repro.cache import simulate
from repro.errors import ValidationError
from repro.experiments import spgemm
from repro.experiments.runner import ExperimentRunner
from repro.gpu.specs import scaled_platform
from repro.graphs.corpus import corpus_names
from repro.sparse.csr import CSRMatrix
from repro.trace.kernel_traces import (
    SPGEMM_IRREGULAR_REGIONS,
    spgemm_csr_structure,
    spgemm_csr_trace,
)
from repro.trace.kernelspec import KernelSpec


def to_scipy(csr: CSRMatrix):
    return scipy_sparse.csr_matrix(
        (np.ones(csr.nnz), csr.col_indices, csr.row_offsets),
        shape=(csr.n_rows, csr.n_cols),
    )


def random_square(n: int, density: float, seed: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(np.float64)
    sp = scipy_sparse.csr_matrix(dense)
    return CSRMatrix(n, n, sp.indptr, sp.indices, sp.data)


def assert_structure_matches_scipy(csr: CSRMatrix) -> None:
    c_row_nnz, flops = spgemm_csr_structure(csr)
    reference = to_scipy(csr) @ to_scipy(csr)
    reference.eliminate_zeros()
    assert np.array_equal(c_row_nnz, np.diff(reference.indptr))
    # Gustavson flops: one multiply-add per (a_ij, b_jk) pair.
    degrees = np.diff(csr.row_offsets)
    assert flops == int(degrees[csr.col_indices].sum())


class TestStructureDifferential:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_matrices(self, seed):
        csr = random_square(40 + 7 * seed, 0.02 + 0.03 * (seed % 3), seed)
        assert_structure_matches_scipy(csr)

    @pytest.mark.parametrize("name", corpus_names("test"))
    def test_corpus(self, name):
        assert_structure_matches_scipy(load_graph(name).adjacency)

    def test_adversarial_shapes(self):
        empty = CSRMatrix(3, 3, [0, 0, 0, 0], [], [])
        c_row_nnz, flops = spgemm_csr_structure(empty)
        assert flops == 0 and c_row_nnz.sum() == 0

        self_loop = CSRMatrix(1, 1, [0, 1], [0], [1.0])
        c_row_nnz, flops = spgemm_csr_structure(self_loop)
        assert flops == 1 and list(c_row_nnz) == [1]

        # One dense row referencing every column, others empty.
        n = 16
        dense_row = CSRMatrix(
            n, n, [0, n] + [n] * (n - 1), list(range(n)), [1.0] * n
        )
        assert_structure_matches_scipy(dense_row)

    def test_rejects_non_square(self):
        rect = CSRMatrix(2, 3, [0, 1, 2], [0, 2], [1.0, 1.0])
        with pytest.raises(ValidationError):
            spgemm_csr_structure(rect)
        with pytest.raises(ValidationError):
            spgemm_csr_trace(rect)


class TestTrace:
    def test_trace_is_deterministic_per_schedule(self):
        csr = load_graph("test-comm").adjacency
        for schedule in ("sequential", "interleaved", "clustered"):
            a = spgemm_csr_trace(csr, schedule=schedule)
            b = spgemm_csr_trace(csr, schedule=schedule)
            assert np.array_equal(a.lines, b.lines)
            assert a.schedule == schedule

    def test_trace_counts_and_regions(self):
        csr = load_graph("test-mesh").adjacency
        trace = spgemm_csr_trace(csr)
        c_row_nnz, flops = spgemm_csr_structure(csr)
        n, nnz, nnz_c = csr.n_rows, csr.nnz, int(c_row_nnz.sum())
        # Per row: one a_row_offsets and one c_row_offsets access; per A
        # entry: coords + values + b_row_offsets gather; per flop: the
        # b_coords/b_values pair; per C entry: coords + values.
        expected = 2 * n + 3 * nnz + 2 * flops + 2 * nnz_c
        assert trace.lines.size == expected
        assert trace.n_irregular == nnz + 2 * flops
        assert trace.irregular_regions == SPGEMM_IRREGULAR_REGIONS
        assert trace.analytic_compulsory_bytes == (
            3 * (n + 1) + 4 * nnz + 2 * nnz_c
        ) * 4
        region_names = [name for name, _, _ in trace.regions]
        assert "b_coords" in region_names and "c_values" in region_names

    def test_schedules_share_the_compulsory_footprint(self):
        # Schedules reorder the walk (and may collapse more trivially
        # consecutive hits) but touch the same distinct lines.
        csr = load_graph("test-rmat").adjacency
        seq = spgemm_csr_trace(csr, schedule="sequential")
        clu = spgemm_csr_trace(csr, schedule="clustered")
        assert np.array_equal(np.unique(seq.lines), np.unique(clu.lines))
        assert seq.analytic_compulsory_bytes == clu.analytic_compulsory_bytes

    def test_clustered_schedule_reduces_misses(self):
        # The arXiv 2507.21253 effect: sorting a cluster's A entries by
        # column makes repeated B-row walks coalesce in cache.
        csr = load_graph("test-rmat").adjacency
        config = scaled_platform("test").cache_config()
        seq = simulate(spgemm_csr_trace(csr, schedule="sequential"), config)
        clu = simulate(spgemm_csr_trace(csr, schedule="clustered"), config)
        assert clu.misses < seq.misses


class TestPipeline:
    def test_evaluate_ordering_rides_spgemm(self):
        graph = load_graph("test-comm")
        platform = scaled_platform("test")
        run = evaluate_ordering(graph, kernel="spgemm-csr", platform=platform)
        assert run.kernel == "spgemm-csr"
        assert run.normalized_traffic >= 1.0

    def test_kernelspec_builds_spgemm(self):
        spec = KernelSpec.parse("spgemm-csr")
        csr = load_graph("test-mesh").adjacency
        trace = spec.build_trace(csr, line_bytes=32, schedule="clustered")
        assert trace.kernel == "spgemm-csr"
        assert trace.schedule == "clustered"

    def test_runner_and_sweep_driver(self, tmp_path):
        runner = ExperimentRunner("test", cache_dir=str(tmp_path))
        record = runner.run("test-comm", "rabbit", kernel="spgemm-csr")
        assert record.kernel == "spgemm-csr"
        report = spgemm.run(
            runner=runner,
            matrices=["test-comm", "test-rmat"],
            techniques=("original", "rabbit"),
        )
        assert report.experiment == "spgemm-sweep"
        assert "mean_clustered_gain_original" in report.summary
        assert report.summary["mean_clustered_gain_original"] >= 1.0
        assert report.to_text()
