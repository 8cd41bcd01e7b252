"""The result store as the runner, Fig. 9 and the serve tier share it.

Keys derive from matrix structure, so a sweep's deterministic entries
are the same bytes wherever it runs, a changed recipe misses, and a
cell the runner stored is a serve-tier hit.
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
from repro.obs import Instrumentation, using
from repro.serve.service import ReorderService, ServeConfig
from repro.store import DETERMINISTIC_KINDS, KINDS, ResultStore


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
