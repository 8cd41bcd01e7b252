"""The result store as the runner, Fig. 9 and the serve tier share it.

Keys derive from matrix content (the structure, and the values of a
weighted matrix), so a sweep's deterministic entries are the same bytes
wherever it runs, a changed recipe or a reweighted matrix misses, and
a cell the runner stored is a serve-tier hit.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.experiments import fig3, fig6, fig9
from repro.experiments.runner import ExperimentRunner
from repro.graphs import corpus
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.obs import Instrumentation, using
from repro.serve.service import ReorderService, ServeConfig
from repro.sparse.coo import COOMatrix
from repro.store import (
    DETERMINISTIC_KINDS,
    KINDS,
    ResultStore,
    matrix_digest,
    structure_digest,
)


def store_files(root, kinds=KINDS):
    """{store-relative path: bytes} of the store's entries of ``kinds``."""
    out = {}
    for path in ResultStore(root).entries(kinds):
        with open(path, "rb") as handle:
            out[os.path.relpath(path, root)] = handle.read()
    return out


def test_two_cold_sweeps_write_identical_deterministic_entries(tmp_path):
    trees = []
    for name in ("first", "second"):
        root = str(tmp_path / name)
        runner = ExperimentRunner(profile="test", cache_dir=root)
        for driver in (fig3, fig6, fig9):
            driver.run(profile="test", runner=runner)
        trees.append(store_files(root, DETERMINISTIC_KINDS))
        kinds = {path.split(os.sep)[0] for path in store_files(root)}
        assert kinds == set(KINDS)
    assert {path.split(os.sep)[0] for path in trees[0]} == set(DETERMINISTIC_KINDS)
    assert trees[0] == trees[1]


def test_replaced_recipe_misses_and_returns_the_new_numbers(tmp_path, monkeypatch):
    root = str(tmp_path / "store")
    old = ExperimentRunner(profile="test", cache_dir=root).run("test-random", "rabbit")
    entry = corpus.get_entry("test-random")
    monkeypatch.setitem(
        corpus._REGISTRY,
        "test-random",
        dataclasses.replace(entry, builder=lambda: erdos_renyi(512, 6.0, seed=406)),
    )
    corpus.load_matrix.cache_clear()
    try:
        with using(Instrumentation(enabled=True)) as instr:
            new = ExperimentRunner(profile="test", cache_dir=root).run(
                "test-random", "rabbit"
            )
        fresh = ExperimentRunner(
            profile="test", cache_dir=str(tmp_path / "fresh")
        ).run("test-random", "rabbit")
    finally:
        corpus.load_matrix.cache_clear()
    assert instr.counters.get("store.eval.miss") == 1
    assert instr.counters.get("store.eval.hit") == 0
    assert dataclasses.replace(new, reorder_seconds=0.0) == dataclasses.replace(
        fresh, reorder_seconds=0.0
    )
    assert (new.accesses, new.misses) != (old.accesses, old.misses)


@pytest.mark.parametrize("kernel", ["spmv-csr", "spmm-csr-4"])
def test_runner_cell_is_a_serve_hit_and_back(tmp_path, kernel):
    root = str(tmp_path / "store")
    runner = ExperimentRunner(profile="test", cache_dir=root)
    record = runner.run("test-comm", "rabbit", kernel=kernel)
    service = ReorderService(ServeConfig(profile="test", store_dir=root))

    result = service.handle(
        {"matrix": "test-comm", "technique": "rabbit", "kernel": kernel}
    )
    assert result.store == "hit"
    model = result.payload["model"]
    assert model == {field: getattr(record, field) for field in model}
    assert result.payload["reorder_seconds"] == record.reorder_seconds
    assert np.array_equal(
        np.asarray(result.payload["permutation"]),
        runner.permutation("test-comm", "rabbit").permutation,
    )

    # And the other way: a served cell is a runner hit.
    served = service.handle(
        {"matrix": "test-comm", "technique": "degsort", "kernel": kernel}
    )
    assert served.store == "miss"
    with using(Instrumentation(enabled=True)) as instr:
        replay = ExperimentRunner(profile="test", cache_dir=root).run(
            "test-comm", "degsort", kernel=kernel
        )
    assert instr.counters.get("store.eval.hit") == 1
    assert served.payload["model"] == {
        field: getattr(replay, field) for field in served.payload["model"]
    }


def _weighted_social():
    """test-social, and the same structure under symmetric weights."""
    coo = corpus.load_matrix("test-social")
    low, high = np.minimum(coo.rows, coo.cols), np.maximum(coo.rows, coo.cols)
    weights = 1 + ((low * 7919 + high * 104729) % 97) / 10
    weighted = COOMatrix(coo.n_rows, coo.n_cols, coo.rows, coo.cols, weights)
    return Graph.from_coo(coo), Graph.from_coo(weighted)


def test_matrix_digest_adds_values_only_when_they_are_not_all_one():
    pattern, weighted = _weighted_social()
    assert matrix_digest(pattern.adjacency) == structure_digest(pattern.adjacency)
    assert structure_digest(weighted.adjacency) == structure_digest(pattern.adjacency)
    assert matrix_digest(weighted.adjacency) != matrix_digest(pattern.adjacency)
    for name in corpus.corpus_names("test"):
        adjacency = corpus.load_graph(name).adjacency
        assert matrix_digest(adjacency) == structure_digest(adjacency)


@pytest.mark.parametrize("technique", ["rabbit", "rabbit++", "louvain"])
def test_weighted_graph_never_reads_the_pattern_graphs_entries(tmp_path, technique):
    pattern, weighted = _weighted_social()
    shared = ExperimentRunner(profile="test", cache_dir=str(tmp_path / "shared"))
    shared.add_graph("pattern", pattern)
    shared.add_graph("weighted", weighted)
    shared.run("pattern", technique)
    fresh = ExperimentRunner(profile="test", cache_dir=str(tmp_path / "fresh"))
    fresh.add_graph("weighted", weighted)
    assert np.array_equal(
        shared.permutation("weighted", technique).permutation,
        fresh.permutation("weighted", technique).permutation,
    )
    got, want = shared.run("weighted", technique), fresh.run("weighted", technique)
    assert dataclasses.replace(got, reorder_seconds=0.0) == dataclasses.replace(
        want, reorder_seconds=0.0
    )
