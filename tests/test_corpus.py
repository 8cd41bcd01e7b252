"""Corpus registry and selection-process tests."""

import numpy as np
import pytest

from repro.errors import CorpusError, ValidationError
from repro.graphs.corpus import (
    CorpusEntry,
    MAX_NNZ,
    MIN_NODES,
    corpus_entries,
    corpus_names,
    get_entry,
    hash_name,
    load_graph,
    load_matrix,
    selection_report,
)
from repro.sparse.ops import is_symmetric


class TestRegistry:
    def test_profiles_are_disjoint_by_name(self):
        full = set(corpus_names("full"))
        bench = set(corpus_names("bench"))
        test = set(corpus_names("test"))
        assert not full & bench
        assert not full & test
        assert not bench & test

    def test_full_profile_is_broad(self):
        entries = corpus_entries("full")
        assert len(entries) >= 25
        categories = {entry.category for entry in entries}
        # The paper's corpus spans many source domains (Section III).
        assert len(categories) >= 8

    def test_test_profile_is_small(self):
        for entry in corpus_entries("test"):
            matrix = load_matrix(entry.name)
            assert matrix.n_rows <= 1024

    def test_unknown_profile(self):
        with pytest.raises(ValidationError):
            corpus_names("huge")

    def test_unknown_entry(self):
        with pytest.raises(CorpusError):
            get_entry("nope")

    def test_bad_publisher_order_rejected(self):
        with pytest.raises(ValidationError):
            CorpusEntry("x", "cat", lambda: None, publisher_order="mystery")

    def test_bad_profile_rejected(self):
        with pytest.raises(ValidationError):
            CorpusEntry("x", "cat", lambda: None, profiles=("huge",))


class TestLoading:
    def test_load_is_cached(self):
        assert load_matrix("test-mesh") is load_matrix("test-mesh")

    def test_load_deterministic_content(self):
        a = load_matrix("test-comm")
        entry = get_entry("test-comm")
        rebuilt = entry.builder()
        # Same structure modulo the (deterministic) scramble.
        assert a.nnz == rebuilt.nnz
        assert a.shape == rebuilt.shape

    def test_scrambled_differs_from_native(self):
        entry = get_entry("test-comm")
        assert entry.publisher_order == "scrambled"
        native = entry.builder()
        scrambled = load_matrix("test-comm")
        assert native != scrambled  # permutation applied

    def test_native_matches_builder(self):
        entry = get_entry("test-kmer")
        assert entry.publisher_order == "native"
        assert load_matrix("test-kmer") == entry.builder()

    def test_load_graph_directedness(self):
        assert load_graph("test-rmat").directed
        assert not load_graph("test-mesh").directed

    def test_directed_flag_matches_symmetry(self):
        # A .mtx upload's Graph.directed comes from is_symmetric, and the
        # serve store keys an upload and its corpus matrix by the same
        # structure digest, so the two must agree on every entry.
        names = corpus_names("test") + corpus_names("bench")
        mismatched = [
            name for name in names
            if is_symmetric(load_matrix(name)) == get_entry(name).directed
        ]
        assert mismatched == []

    def test_hash_name_is_stable(self):
        # Guard against hash() randomization: must be process-independent.
        assert hash_name("soc-forum") == hash_name("soc-forum")
        assert hash_name("a") != hash_name("b")


class TestSelection:
    def test_all_test_entries_selected(self):
        records = selection_report("test")
        assert all(record.selected for record in records)

    def test_criteria_mirror_paper(self):
        """Every selected matrix's input vector exceeds the modeled L2."""
        from repro.gpu.specs import scaled_platform

        for profile in ("test", "bench"):
            platform = scaled_platform(profile)
            element_bytes = 4
            for record in selection_report(profile):
                if record.selected:
                    assert (
                        record.n_nodes * element_bytes >= platform.l2_capacity_bytes
                    ), record.name
                    assert record.nnz <= MAX_NNZ[profile]

    def test_records_expose_reason_when_rejected(self):
        records = selection_report("test")
        for record in records:
            if not record.selected:
                assert record.reason

    def test_min_nodes_footprint_rule(self):
        # The constant itself must encode "input vector bigger than L2".
        from repro.gpu.specs import scaled_platform

        for profile, min_nodes in MIN_NODES.items():
            platform = scaled_platform(profile)
            assert min_nodes * 4 >= platform.l2_capacity_bytes
