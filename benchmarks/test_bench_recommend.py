"""Benchmark: predictor-backed recommend vs brute-force evaluation.

The PR 7 serve tier answered ``technique: "auto"`` by evaluating every
candidate: one reordering + one trace + one cache simulation per
candidate plus the baseline.  The predictor path answers the same
question from structural features — one community detection, a few dot
products, zero candidate reorderings.  This bench times both on a
scale-13 RMAT matrix (outside the corpus, so nothing is pre-cached)
and asserts the acceptance criteria:

* the predicted recommendation is at least 5x faster than the
  brute-force sweep it replaces;
* the ``serve.compute.*`` counters confirm the predict path computed
  zero permutations and zero evaluations.
"""

from __future__ import annotations

import time

from repro import obs
from repro.graphs.generators.powerlaw import rmat
from repro.graphs.graph import Graph
from repro.obs import Instrumentation
from repro.serve.service import (
    BASELINE_TECHNIQUE,
    ReorderService,
    ResolvedMatrix,
    ServeConfig,
)
from repro.sparse.convert import coo_to_csr

#: Acceptance floor from ISSUE 8.
MIN_SPEEDUP = 5.0

SCALE = 13
KERNEL = "spmv-csr"


def _fresh_matrix() -> ResolvedMatrix:
    """The bench matrix as a new graph: RABBIT detection is memoized per
    graph object, so each side built from its own graph pays for its own
    detection."""
    return ResolvedMatrix.of(
        Graph(coo_to_csr(rmat(scale=SCALE, edge_factor=8, seed=3, directed=False)))
    )


def test_bench_recommend_beats_brute_force(tmp_path):
    matrix = _fresh_matrix()
    instr = Instrumentation(enabled=True)
    with obs.using(instr):
        service = ReorderService(
            ServeConfig(profile="bench", store_dir=str(tmp_path / "store"))
        )

        # Predicted path (cold: includes the one community detection
        # plus the pretrained-coefficient load).
        started = time.perf_counter()
        chosen, recommendation = service._recommend(matrix, KERNEL, 100)
        predicted_seconds = time.perf_counter() - started
        assert recommendation["predicted"] is True
        assert instr.counters.get("serve.compute.eval") == 0
        assert instr.counters.get("serve.compute.permutation") == 0

        # Brute-force path the predictor replaced: evaluate the baseline
        # and every candidate (PR 7's _recommend).
        matrix = _fresh_matrix()
        started = time.perf_counter()
        for technique in (BASELINE_TECHNIQUE,) + service.config.candidates:
            service._evaluate(matrix, technique, KERNEL, "lru")
        brute_seconds = time.perf_counter() - started
        n_candidates = len(service.config.candidates)
        assert instr.counters.get("serve.compute.eval") == n_candidates + 1
        assert instr.counters.get("serve.compute.permutation") == n_candidates + 1

    speedup = brute_seconds / predicted_seconds
    print(
        f"\nrecommend bench (scale-{SCALE} rmat, {matrix.nnz} nnz): "
        f"predicted {predicted_seconds * 1e3:.0f} ms vs brute "
        f"{brute_seconds * 1e3:.0f} ms -> {speedup:.1f}x (chosen: {chosen})"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"predicted recommend only {speedup:.1f}x faster than brute force"
    )
