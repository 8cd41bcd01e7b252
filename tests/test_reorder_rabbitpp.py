"""RABBIT++ and the Table II design space."""

import numpy as np
import pytest

from repro.community.rabbit import detect
from repro.errors import ValidationError
from repro.graphs.corpus import load_graph
from repro.metrics.insularity import insular_mask
from repro.reorder.rabbit import RabbitOrder
from repro.reorder.rabbitpp import HubPolicy, RabbitPlusPlus, table2_variants
from repro.sparse.permute import check_permutation


class TestConfiguration:
    def test_default_is_paper_rabbitpp(self):
        technique = RabbitPlusPlus()
        assert technique.name == "rabbit++"
        assert technique.group_insular
        assert technique.hub_policy is HubPolicy.GROUP
        assert technique.segment_policy == "insular-first"

    def test_names_cover_design_space(self):
        assert RabbitPlusPlus(group_insular=False, hub_policy=HubPolicy.SORT).name == "rabbit+hubsort"
        assert RabbitPlusPlus(group_insular=True, hub_policy=HubPolicy.NONE).name == "rabbit+insular"
        assert (
            RabbitPlusPlus(segment_policy="hubs-first").name == "rabbit++/hubs-first"
        )

    def test_bad_segment_policy(self):
        with pytest.raises(ValidationError):
            RabbitPlusPlus(segment_policy="middle-out")

    def test_bad_hub_policy(self):
        with pytest.raises(ValidationError):
            RabbitPlusPlus(hub_policy="sort")


def insular_nodes(graph):
    return insular_mask(graph, detect(graph).assignment)


def hub_nodes(graph):
    return np.asarray(graph.in_degrees()) > graph.average_degree()


class TestSegmentSemantics:
    def test_insular_nodes_first(self):
        graph = load_graph("test-social")
        perm = RabbitPlusPlus().compute(graph)
        insular = insular_nodes(graph)
        n_insular = int(insular.sum())
        assert 0 < n_insular < graph.n_nodes
        # Every insular node must be ordered before every non-insular one.
        assert perm[insular].max() < perm[~insular].min()

    def test_hubs_follow_insular_segment(self):
        graph = load_graph("test-social")
        perm = RabbitPlusPlus().compute(graph)
        insular = insular_nodes(graph)
        hubs = hub_nodes(graph)
        hub_section = hubs & ~insular
        rest = ~hubs & ~insular
        if hub_section.any() and rest.any():
            assert perm[hub_section].max() < perm[rest].min()

    def test_insular_only_variant_preserves_rabbit_relative_order(self):
        graph = load_graph("test-social")
        rabbit = RabbitOrder()
        rabbit_perm = rabbit.compute(graph)
        perm = RabbitPlusPlus(group_insular=True, hub_policy=HubPolicy.NONE).compute(graph)
        insular = insular_nodes(graph)
        for segment in (np.flatnonzero(insular), np.flatnonzero(~insular)):
            # Within a segment, RABBIT's relative order must be intact.
            rabbit_ranks = rabbit_perm[segment]
            new_ranks = perm[segment]
            assert np.array_equal(np.argsort(rabbit_ranks), np.argsort(new_ranks))

    def test_hubsort_orders_hubs_by_degree(self):
        graph = load_graph("test-social")
        perm = RabbitPlusPlus(group_insular=False, hub_policy=HubPolicy.SORT).compute(graph)
        hubs = hub_nodes(graph)
        in_degrees = np.asarray(graph.in_degrees())
        hub_ids = np.flatnonzero(hubs)
        by_new_order = hub_ids[np.argsort(perm[hub_ids])]
        assert np.all(np.diff(in_degrees[by_new_order]) <= 0)

    def test_no_modifications_equals_rabbit(self):
        graph = load_graph("test-comm")
        plain = RabbitOrder().compute(graph)
        unmodified = RabbitPlusPlus(
            group_insular=False, hub_policy=HubPolicy.NONE
        ).compute(graph)
        assert np.array_equal(plain, unmodified)


class TestTable2Variants:
    def test_six_cells(self):
        variants = table2_variants()
        assert len(variants) == 6
        rows = {row for row, _, _ in variants}
        assert rows == {"RABBIT", "RABBIT+HUBSORT", "RABBIT+HUBGROUP"}

    def test_all_variants_produce_valid_permutations(self):
        graph = load_graph("test-social")
        for _, _, technique in table2_variants():
            check_permutation(technique.compute(graph), graph.n_nodes)
