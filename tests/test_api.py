"""High-level convenience API."""

import numpy as np
import pytest

from repro import (
    evaluate_ordering,
    load_graph,
    make_technique,
    recommend,
    reorder_and_evaluate,
    reorder_matrix,
)
from repro.community import detect
from repro.gpu.specs import scaled_platform
from repro.obs import FakeClock, Instrumentation, using


class TestReorderMatrix:
    def test_accepts_graph_and_name(self):
        graph = load_graph("test-comm")
        reordered = reorder_matrix(graph, "rabbit")
        assert reordered.shape == graph.adjacency.shape
        assert reordered.nnz == graph.adjacency.nnz

    def test_accepts_csr_and_instance(self):
        graph = load_graph("test-mesh")
        reordered = reorder_matrix(graph.adjacency, make_technique("rcm"))
        assert reordered.nnz == graph.adjacency.nnz


class TestEvaluateOrdering:
    def test_unpermuted_evaluation(self):
        graph = load_graph("test-comm")
        run = evaluate_ordering(graph, platform=scaled_platform("test"))
        assert run.normalized_traffic >= 1.0

    def test_rabbit_improves_over_random(self):
        graph = load_graph("test-comm")
        platform = scaled_platform("test")
        random_perm = make_technique("random").compute(graph)
        rabbit_perm = make_technique("rabbit").compute(graph)
        random_run = evaluate_ordering(graph, random_perm, platform=platform)
        rabbit_run = evaluate_ordering(graph, rabbit_perm, platform=platform)
        assert rabbit_run.normalized_traffic < random_run.normalized_traffic

    def test_kernel_selection(self):
        graph = load_graph("test-mesh")
        platform = scaled_platform("test")
        for kernel in ("spmv-csr", "spmv-coo", "spmm-csr-4"):
            run = evaluate_ordering(graph, kernel=kernel, platform=platform)
            assert run.kernel == kernel

    def test_unknown_kernel(self):
        graph = load_graph("test-mesh")
        with pytest.raises(ValueError):
            evaluate_ordering(graph, kernel="fft")

    def test_belady_policy(self):
        graph = load_graph("test-mesh")
        platform = scaled_platform("test")
        lru = evaluate_ordering(graph, platform=platform, policy="lru")
        opt = evaluate_ordering(graph, platform=platform, policy="belady")
        assert opt.stats.misses <= lru.stats.misses

    def test_accepts_technique_name_for_permutation(self):
        graph = load_graph("test-comm")
        platform = scaled_platform("test")
        perm = make_technique("rcm").compute(graph)
        by_perm = evaluate_ordering(graph, perm, platform=platform)
        by_name = evaluate_ordering(graph, "rcm", platform=platform)
        by_instance = evaluate_ordering(
            graph, make_technique("rcm"), platform=platform
        )
        assert by_name.traffic_bytes == by_perm.traffic_bytes
        assert by_instance.traffic_bytes == by_perm.traffic_bytes


class TestReorderAndEvaluate:
    def test_full_round_trip(self):
        graph = load_graph("test-comm")
        result = reorder_and_evaluate(
            graph, "rabbit", platform=scaled_platform("test")
        )
        assert result.technique == "rabbit"
        assert sorted(result.permutation) == list(range(graph.n_nodes))
        assert result.matrix.nnz == graph.adjacency.nnz
        assert result.reorder_seconds > 0
        assert result.baseline is not None
        assert result.speedup == pytest.approx(
            result.baseline.modeled_seconds / result.model.modeled_seconds
        )
        assert result.break_even_iterations is not None

    def test_without_baseline(self):
        graph = load_graph("test-mesh")
        result = reorder_and_evaluate(
            graph,
            "degsort",
            platform=scaled_platform("test"),
            compare_baseline=False,
        )
        assert result.baseline is None
        assert result.speedup is None
        assert result.break_even_iterations is None

    def test_charges_detection_on_an_already_detected_graph(self):
        """Regression: the API timed only ``compute``, so RABBIT++ on a
        graph detected earlier was charged just its regrouping."""
        graph = load_graph("test-social")
        with using(Instrumentation(clock=FakeClock(tick=1.0))):
            detected = detect(graph).seconds
            result = reorder_and_evaluate(
                graph, "rabbit++", platform=scaled_platform("test"),
                compare_baseline=False,
            )
        assert result.reorder_seconds >= detected > 0


class TestRecommend:
    def test_predictor_backed_recommendation(self):
        graph = load_graph("test-comm")
        rec = recommend(graph, kernel="spmv-csr", profile="test", iterations=100)
        assert rec.iterations == 100
        assert rec.baseline_seconds > 0
        assert rec.candidates
        for row in rec.candidates:
            assert row["total_seconds"] == pytest.approx(
                row["reorder_seconds"] + 100 * row["modeled_seconds"]
            )
        if not rec.reorder_worth_it:
            assert rec.chosen == "original"


class TestPublicNamespace:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__
