"""RABBIT ordering tests, and the per-graph detection memo it reads."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.community.rabbit import detect, rabbit_communities
from repro.graphs.corpus import load_graph
from repro.graphs.generators.community import dcsbm
from repro.graphs.graph import Graph
from repro.metrics.locality import average_neighbor_span
from repro.obs import FakeClock, Instrumentation, using
from repro.reorder.base import reorder_with_timing
from repro.reorder.rabbit import RabbitOrder
from repro.reorder.rabbitpp import RabbitPlusPlus
from repro.sparse.permute import check_permutation, permute_symmetric


class TestRabbitOrder:
    def test_valid_permutation(self, two_triangles):
        check_permutation(RabbitOrder().compute(two_triangles), 6)

    def test_communities_contiguous(self):
        graph = load_graph("test-comm")
        perm = RabbitOrder().compute(graph)
        assignment = detect(graph).assignment
        by_new_id = np.argsort(perm)
        sequence = assignment.labels[by_new_id]
        changes = int(np.sum(sequence[1:] != sequence[:-1]))
        assert changes == assignment.n_communities - 1

    def test_improves_locality_on_scrambled_community_graph(self):
        graph = load_graph("test-comm")
        perm = RabbitOrder().compute(graph)
        before = average_neighbor_span(graph.adjacency)
        after = average_neighbor_span(permute_symmetric(graph.adjacency, perm))
        assert after < 0.5 * before

    def test_detect_reuses_result(self):
        graph = load_graph("test-comm")
        first = detect(graph)
        assert detect(graph) is first
        assert first.assignment.n_nodes == graph.n_nodes
        assert np.array_equal(RabbitOrder().compute(graph), first.ordering)

    def test_detect_reruns_for_another_graph_of_the_same_size(self):
        first = Graph.from_coo(dcsbm(512, 8, 12.0, 0.15, seed=3), directed=True)
        second = Graph.from_coo(dcsbm(512, 8, 12.0, 0.15, seed=4), directed=True)
        detect(first)
        result = detect(second)
        expected = rabbit_communities(second)
        assert np.array_equal(result.assignment.labels, expected.assignment.labels)
        assert detect(second) is result

    def test_deterministic(self, two_triangles):
        a = RabbitOrder().compute(two_triangles)
        b = RabbitOrder().compute(two_triangles)
        assert np.array_equal(a, b)


class TestDetectionMemo:
    def test_ordering_is_read_only(self):
        ordering = detect(load_graph("test-mesh")).ordering
        with pytest.raises(ValueError):
            ordering[0] = 0

    def test_memo_never_keeps_a_graph_alive(self):
        graph = load_graph("test-mesh")
        detect(graph)
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None

    def test_racing_threads_share_the_first_stored_result(self):
        graph = Graph.from_coo(dcsbm(256, 4, 8.0, 0.2, seed=11))
        results = []
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait(timeout=30)
            results.append(detect(graph))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 6
        assert all(result is detect(graph) for result in results)


class TestDetectionCharge:
    """``reorder_with_timing`` charges the graph's detection to every
    technique that orders from it, on a memo hit as well as a miss."""

    @pytest.mark.parametrize(
        "first, second",
        [(RabbitOrder, RabbitPlusPlus), (RabbitPlusPlus, RabbitOrder)],
    )
    def test_both_techniques_pay_for_detection(self, first, second):
        graph = load_graph("test-comm")
        with using(Instrumentation(clock=FakeClock(tick=1.0))):
            timed = [reorder_with_timing(t(), graph) for t in (first, second)]
            detected = detect(graph).seconds
        assert detected > 0
        for result in timed:
            assert result.seconds >= detected
