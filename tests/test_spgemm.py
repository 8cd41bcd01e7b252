"""SpGEMM (Gustavson CSR x CSR) workload: structure vs scipy, trace
invariants, the blocked trace vs the monolithic oracle, the walk's
block-building worker thread, the cluster-wise schedule win, and
pipeline integration."""

from __future__ import annotations

import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest

scipy_sparse = pytest.importorskip("scipy.sparse")

from repro import evaluate_ordering, load_graph
from repro.cache import simulate
from repro.errors import ValidationError
from repro.experiments import spgemm
from repro.experiments.runner import ExperimentRunner
from repro.gpu.perf import model_run
from repro.gpu.specs import scaled_platform
from repro.graphs.corpus import corpus_names
from repro.obs import Instrumentation, MemorySink, using
from repro.predict.features import analytic_compulsory_bytes
from repro.sparse.csr import CSRMatrix
from repro.trace import kernel_traces
from repro.trace.kernel_traces import (
    SPGEMM_IRREGULAR_REGIONS,
    KernelTrace,
    single_block,
    spgemm_csr_structure,
    spgemm_csr_trace,
)
from repro.trace.kernelspec import KernelSpec
from tests.oracles import trace as oracle

#: Block budgets: a few rows per block, many rows, the whole trace.
BUDGETS = (97, 4096, 2**62)


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

    @pytest.mark.parametrize("name", corpus_names("test"))
    def test_blocked_symbolic_pass(self, name, monkeypatch):
        csr = load_graph(name).adjacency
        monkeypatch.setattr(kernel_traces, "BLOCK_ACCESSES", 97)
        assert spgemm_csr_structure(csr)[1] > 20 * 97  # many blocks
        assert_structure_matches_scipy(csr)

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


def dense_row(n: int) -> CSRMatrix:
    """One dense row referencing every column, the other rows empty."""
    return CSRMatrix(n, n, [0, n] + [n] * (n - 1), list(range(n)), [1.0] * n)


class TestBlocks:
    """The trace built block by block equals the monolithic oracle."""

    @staticmethod
    def assert_matches(csr: CSRMatrix, schedule: str, reference) -> KernelTrace:
        trace = spgemm_csr_trace(csr, schedule=schedule)
        blocks = list(trace.blocks())
        assert all(block.size for block in blocks)
        # No block starts with the line its predecessor ended on.
        assert all(a[-1] != b[0] for a, b in zip(blocks, blocks[1:]))
        lines = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
        assert np.array_equal(lines, reference.lines)
        assert trace.regions == reference.regions
        assert trace.n_irregular == reference.n_irregular
        assert trace.analytic_compulsory_bytes == reference.analytic_compulsory_bytes
        assert analytic_compulsory_bytes(csr, "spgemm-csr") == (
            reference.analytic_compulsory_bytes
        )
        return trace

    @pytest.mark.parametrize("schedule", ["sequential", "interleaved", "clustered"])
    @pytest.mark.parametrize("name", corpus_names("test"))
    def test_corpus(self, name, schedule, monkeypatch):
        csr = load_graph(name).adjacency
        reference = oracle.spgemm_csr_trace(csr, schedule=schedule)
        for budget in BUDGETS:
            monkeypatch.setattr(kernel_traces, "BLOCK_ACCESSES", budget)
            self.assert_matches(csr, schedule, reference)

    @pytest.mark.parametrize("budget", BUDGETS, ids=["97", "4096", "unbounded"])
    def test_edge_cases(self, budget, monkeypatch):
        monkeypatch.setattr(kernel_traces, "BLOCK_ACCESSES", budget)
        empty = CSRMatrix(0, 0, [0], [], [])
        self_loop = CSRMatrix(1, 1, [0, 1], [0], [1.0])
        for csr in (empty, self_loop, dense_row(64)):
            self.assert_matches(csr, "sequential", oracle.spgemm_csr_trace(csr))
        assert spgemm_csr_trace(empty).n_accesses == 0
        # Row 0's group (450 of the 576 accesses) exceeds the 97 budget
        # and still comes whole, as the first block.
        first = next(spgemm_csr_trace(dense_row(64)).blocks())
        assert first.size == (450 if budget == 97 else 576)

    @pytest.mark.parametrize("name, budget", [("test-kmer", 97), ("test-rmat", 4096)])
    def test_model_run_matches_single_block(self, name, budget, monkeypatch):
        """Simulating the trace block by block gives the whole trace's
        cache counters and compulsory bytes."""
        csr = load_graph(name).adjacency
        platform = scaled_platform("test")
        monkeypatch.setattr(kernel_traces, "BLOCK_ACCESSES", budget)
        trace = spgemm_csr_trace(csr)
        whole = dataclasses.replace(
            trace, blocks=single_block(oracle.spgemm_csr_trace(csr).lines)
        )
        blocked, reference = model_run(trace, platform), model_run(whole, platform)
        assert blocked.stats == reference.stats
        assert blocked.compulsory_bytes == reference.compulsory_bytes


class BuildFailed(Exception):
    """Raised by a patched block build."""


def bounded(call, seconds: float = 60.0):
    """Run ``call`` on a thread joined with a timeout, so a walk that
    deadlocks fails the test instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # handed back to the test thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"the walk did not finish in {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


def count_builds(monkeypatch, fail_at=None):
    """Count ``_SpgemmWalk._accesses`` calls; raise on call ``fail_at``
    (0-based) when given."""
    calls = []
    build = kernel_traces._SpgemmWalk._accesses

    def counted(self, lo, hi):
        calls.append((lo, hi))
        if len(calls) - 1 == fail_at:
            raise BuildFailed(f"block {fail_at}")
        return build(self, lo, hi)

    monkeypatch.setattr(kernel_traces._SpgemmWalk, "_accesses", counted)
    return calls


class TestBlockWorker:
    """Each walk builds its blocks one ahead on a worker thread."""

    @pytest.fixture
    def kmer(self, monkeypatch):
        monkeypatch.setattr(kernel_traces, "BLOCK_ACCESSES", 97)
        return load_graph("test-kmer").adjacency

    def test_build_error_reaches_consumer_after_earlier_blocks(self, kmer, monkeypatch):
        before = set(threading.enumerate())
        calls = count_builds(monkeypatch, fail_at=3)
        taken = []

        def consume():
            for block in spgemm_csr_trace(kmer).blocks():
                taken.append(block)

        with pytest.raises(BuildFailed, match="block 3"):
            bounded(consume)
        assert len(taken) == 3
        assert len(calls) == 4  # the worker stops at the failed build
        assert set(threading.enumerate()) <= before

    def test_close_joins_worker_and_next_walk_is_whole(self, kmer, monkeypatch):
        before = set(threading.enumerate())
        trace = spgemm_csr_trace(kmer)
        calls = count_builds(monkeypatch)

        def first_then_close():
            walk = trace.blocks()
            first = next(walk)
            # Let the worker fill the slot and block handing over the next.
            deadline = time.monotonic() + 10.0
            while len(calls) < 3 and time.monotonic() < deadline:
                time.sleep(0.001)
            walk.close()
            return first

        first = bounded(first_then_close)
        assert set(threading.enumerate()) <= before
        lines = bounded(lambda: np.concatenate(list(trace.blocks())))
        reference = oracle.spgemm_csr_trace(kmer).lines
        assert np.array_equal(lines, reference)
        assert np.array_equal(first, reference[: first.size])
        assert set(threading.enumerate()) <= before

    def test_producer_runs_at_most_one_block_ahead_of_the_queue(self, kmer, monkeypatch):
        calls = count_builds(monkeypatch)

        def consume():
            walk = spgemm_csr_trace(kmer).blocks()
            seen = []
            try:
                for taken in range(1, 9):
                    next(walk)
                    # Give the worker time to run as far ahead as it can.
                    time.sleep(0.02)
                    seen.append((taken, len(calls)))
            finally:
                walk.close()
            return seen

        seen = bounded(consume)
        assert all(built <= taken + 2 for taken, built in seen), seen
        # It does run ahead: the queued block and the one being built.
        assert any(built == taken + 2 for taken, built in seen), seen

    def test_spans_stay_on_the_consumer_thread(self, kmer):
        platform = scaled_platform("test")
        trace = spgemm_csr_trace(kmer)
        n_blocks = sum(1 for _ in trace.blocks())
        assert n_blocks > 10
        sink = MemorySink()
        instr = Instrumentation(sink=sink, enabled=True)

        def run():
            with using(instr), instr.span("root") as root:
                model_run(trace, platform)
            return threading.get_ident(), root

        consumer, root = bounded(run)
        spans = sink.by_kind("span")
        assert {span["tid"] for span in spans} == {consumer}
        assert sum(span["name"] == "trace" for span in spans) == n_blocks
        # Self times sum to the root's duration only if every span nests
        # on one thread; a span opened on the worker would be a root.
        children = {}
        for span in spans:
            if span["parent_id"] is not None:
                children[span["parent_id"]] = children.get(span["parent_id"], 0.0) + span["seconds"]
        self_total = sum(span["seconds"] - children.get(span["span_id"], 0.0) for span in spans)
        assert math.isclose(self_total, root.seconds, rel_tol=1e-9, abs_tol=1e-9)
        assert [span for span in spans if span["parent_id"] is None] == [spans[-1]]
        assert instr.counters.get("trace.block.build_s") > 0

    def test_concurrent_walks_under_fast_thread_switching(self, kmer):
        """Four walks of one trace at once (eight threads on two cores),
        switching threads every 10 us: each walk yields the oracle's
        trace and every consumer-side span is counted."""
        trace = spgemm_csr_trace(kmer)
        reference = oracle.spgemm_csr_trace(kmer).lines
        n_blocks = sum(1 for _ in trace.blocks())
        instr = Instrumentation(enabled=True)
        before = set(threading.enumerate())
        results = [None] * 4

        def walk(i):
            results[i] = np.concatenate(list(trace.blocks()))

        def walk_all():
            threads = [threading.Thread(target=walk, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with using(instr):
                bounded(walk_all)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(lines, reference) for lines in results)
        assert instr.span_totals()["trace"].calls == 4 * n_blocks
        assert instr.counters.histogram("trace").count == 4 * n_blocks
        assert set(threading.enumerate()) <= before

    def test_model_run_joins_worker_when_the_replay_raises(self, kmer, monkeypatch):
        import repro.cache.dispatch as dispatch

        def replay_one_then_fail(blocks, config, regions):
            next(iter(blocks))
            raise BuildFailed("replay failed")

        monkeypatch.setattr(dispatch, "simulate_lru_blocks", replay_one_then_fail)
        before = set(threading.enumerate())
        trace = spgemm_csr_trace(kmer)
        with pytest.raises(BuildFailed, match="replay failed"):
            bounded(lambda: model_run(trace, scaled_platform("test")))
        # The exception (and its traceback) is still alive here.
        assert set(threading.enumerate()) <= before


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
