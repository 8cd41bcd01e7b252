"""ExperimentRunner: pipeline, memoization, and record integrity."""

import json
import os

import pytest

from repro.errors import ValidationError
from repro.experiments.runner import (
    DEFAULT_CACHE_DIR,
    ExperimentRunner,
    MatrixMetrics,
    RunRecord,
    resolve_cache_dir,
)
from repro.obs import Instrumentation, using


@pytest.fixture
def runner(tmp_path):
    return ExperimentRunner(profile="test", cache_dir=str(tmp_path / "cache"))


class TestRun:
    def test_record_fields(self, runner):
        record = runner.run("test-mesh", "rabbit")
        assert record.matrix == "test-mesh"
        assert record.technique == "rabbit"
        assert record.normalized_traffic >= 1.0
        assert record.normalized_runtime >= record.normalized_traffic - 1e-9
        assert 0.0 <= record.hit_rate <= 1.0
        assert 0.0 <= record.dead_line_fraction <= 1.0

    def test_disk_cache_roundtrip(self, runner, tmp_path):
        first = runner.run("test-mesh", "random")
        fresh = ExperimentRunner(profile="test", cache_dir=runner.cache_dir)
        second = fresh.run("test-mesh", "random")
        assert first.to_json() == second.to_json()
        assert len(os.listdir(runner.cache_dir)) > 0

    def test_cache_disabled(self, tmp_path):
        runner = ExperimentRunner(
            profile="test", cache_dir=str(tmp_path / "nocache"), use_cache=False
        )
        runner.run("test-mesh", "original")
        assert not os.path.exists(str(tmp_path / "nocache"))

    def test_unknown_kernel_rejected(self, runner):
        with pytest.raises(ValidationError):
            runner.run("test-mesh", "rabbit", kernel="spgemm")

    def test_unknown_mask_rejected(self, runner):
        with pytest.raises(ValidationError):
            runner.run("test-mesh", "rabbit", mask="hubs")

    def test_unknown_policy_rejected_before_any_work(self, runner):
        """A bad policy fails before reordering runs or a memo is written."""
        instr = Instrumentation(enabled=True)
        with using(instr), pytest.raises(ValidationError):
            runner.run("test-comm", "gorder", policy="opt")
        assert "reorder" not in instr.span_totals()
        memo_dir = runner.cache_dir
        assert not os.path.isdir(memo_dir) or os.listdir(memo_dir) == []

    def test_rabbit_beats_random_on_community_matrix(self, runner):
        random_run = runner.run("test-comm", "random")
        rabbit_run = runner.run("test-comm", "rabbit")
        assert rabbit_run.normalized_traffic < random_run.normalized_traffic

    def test_insular_mask_run_close_to_compulsory(self, runner):
        record = runner.run("test-comm", "rabbit+insular", mask="insular")
        assert record.normalized_traffic < 1.6

    def test_permutation_memoized_in_process(self, runner):
        a = runner.permutation("test-mesh", "rabbit")
        b = runner.permutation("test-mesh", "rabbit")
        assert a is b

    def test_spmm_platform_scaling(self, runner):
        plain = runner._platform_for_kernel("spmv-csr")
        scaled = runner._platform_for_kernel("spmm-csr-256")
        assert scaled.l2_capacity_bytes == plain.l2_capacity_bytes * 16


class TestMetrics:
    def test_metrics_fields(self, runner):
        metrics = runner.matrix_metrics("test-comm")
        assert metrics.n_nodes == 512
        assert 0.0 <= metrics.insularity <= 1.0
        assert 0.0 <= metrics.insular_node_fraction <= 1.0
        assert 0.0 <= metrics.skew <= 1.0
        assert metrics.n_communities >= 1

    def test_metrics_cached_on_disk(self, runner):
        runner.matrix_metrics("test-comm")
        fresh = ExperimentRunner(profile="test", cache_dir=runner.cache_dir)
        metrics = fresh.matrix_metrics("test-comm")
        assert metrics.matrix == "test-comm"

    def test_community_matrix_has_high_insularity(self, runner):
        comm = runner.matrix_metrics("test-comm")
        social = runner.matrix_metrics("test-social")
        assert comm.insularity > social.insularity

    def test_reorder_seconds_persisted(self, runner):
        runner.run("test-mesh", "rabbit")
        seconds = runner.reorder_seconds("test-mesh", "rabbit")
        assert seconds >= 0.0


class TestDetectionMemo:
    def test_detection_runs_once_per_matrix(self, runner, monkeypatch):
        """Regression: the metrics, every masked (kernel, policy) cell,
        RABBIT and RABBIT++ each used to run their own RABBIT detection
        — the most expensive pipeline stage.  They now share one."""
        import repro.community.rabbit as rabbit

        calls = []
        original = rabbit.rabbit_communities

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(rabbit, "rabbit_communities", counting)
        runner.matrix_metrics("test-comm")
        runner.run("test-comm", "original", mask="insular")
        runner.run("test-comm", "original", kernel="spmv-coo", mask="insular")
        runner.run("test-comm", "original", policy="belady", mask="insular")
        runner.run("test-comm", "rabbit")
        runner.run("test-comm", "rabbit++")
        assert len(calls) == 1


class TestCacheDir:
    def test_env_var_redirects_cache(self, tmp_path, monkeypatch):
        target = tmp_path / "redirected"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
        runner = ExperimentRunner(profile="test")
        assert runner.cache_dir == str(target)
        runner.run("test-mesh", "original")
        assert os.path.isdir(str(target))

    def test_explicit_cache_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        explicit = str(tmp_path / "explicit")
        assert ExperimentRunner(profile="test", cache_dir=explicit).cache_dir == explicit

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir() == os.path.join(os.getcwd(), DEFAULT_CACHE_DIR)

    def test_empty_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert resolve_cache_dir() == os.path.join(os.getcwd(), DEFAULT_CACHE_DIR)

    def test_default_follows_chdir(self, tmp_path, monkeypatch):
        """Regression: the default used to be frozen to the cwd at
        import time, so a later chdir silently wrote the memo into the
        old directory."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        monkeypatch.chdir(first)
        assert resolve_cache_dir() == str(first / DEFAULT_CACHE_DIR)
        monkeypatch.chdir(second)
        assert resolve_cache_dir() == str(second / DEFAULT_CACHE_DIR)


class TestWriteJson:
    def test_failed_write_leaves_no_temp_file(self, runner):
        os.makedirs(runner.cache_dir, exist_ok=True)
        with pytest.raises(TypeError):
            runner.store.put("eval", "ab" * 32, {"bad": object()})
        assert [files for _, _, files in os.walk(runner.cache_dir)] == [[]]

    def test_successful_write_leaves_only_target(self, runner):
        path = runner.store.put("eval", "ab" * 32, {"fine": 1})
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
        assert runner.store.entries() == [path]


class TestMemoCounters:
    def test_cold_then_warm_hit_miss_counters(self, runner):
        cold = Instrumentation(enabled=True)
        with using(cold):
            runner.run("test-mesh", "rabbit")
        assert cold.counters.get("store.eval.miss") == 1
        assert cold.counters.get("store.eval.hit") == 0

        warm = Instrumentation(enabled=True)
        fresh = ExperimentRunner(profile="test", cache_dir=runner.cache_dir)
        with using(warm):
            fresh.run("test-mesh", "rabbit")
        assert warm.counters.get("store.eval.hit") == 1
        assert warm.counters.get("store.eval.miss") == 0

    def test_metrics_memo_counters(self, runner):
        instr = Instrumentation(enabled=True)
        with using(instr):
            runner.matrix_metrics("test-mesh")
            runner.matrix_metrics("test-mesh")
        assert instr.counters.get("store.metrics.miss") == 1
        assert instr.counters.get("store.metrics.hit") == 1

    def test_stage_spans_recorded(self, runner):
        instr = Instrumentation(enabled=True)
        with using(instr):
            runner.run("test-mesh", "degsort")
        totals = instr.span_totals()
        for stage in ("load", "reorder", "permute", "trace", "cache-sim", "perf-model"):
            assert totals[stage].calls >= 1, stage
            assert totals[stage].seconds >= 0.0


class TestSerialization:
    def test_run_record_json_roundtrip(self, runner):
        record = runner.run("test-mesh", "dbg")
        payload = json.loads(json.dumps(record.to_json()))
        assert RunRecord.from_json(payload) == record

    def test_matrix_metrics_json_roundtrip(self, runner):
        metrics = runner.matrix_metrics("test-mesh")
        payload = json.loads(json.dumps(metrics.to_json()))
        assert MatrixMetrics.from_json(payload) == metrics


class TestTolerantCacheReads:
    """A truncated or invalid memo file must never crash the runner."""

    def test_truncated_cache_entry_quarantined_and_recomputed(self, runner):
        metrics = runner.matrix_metrics("test-mesh")
        path = runner.metrics_cache_path("test-mesh")
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        fresh = ExperimentRunner(profile="test", cache_dir=runner.cache_dir)
        assert fresh.matrix_metrics("test-mesh") == metrics
        quarantine = os.path.join(runner.cache_dir, "quarantine")
        assert os.path.basename(path) in os.listdir(quarantine)

    def test_invalid_json_cache_entry_recomputed(self, runner):
        record = runner.run("test-mesh", "original")
        with open(runner.run_cache_path("test-mesh", "original"), "w") as handle:
            handle.write("{ not json")
        fresh = ExperimentRunner(profile="test", cache_dir=runner.cache_dir)
        redone = fresh.run("test-mesh", "original")
        assert redone.normalized_traffic == record.normalized_traffic
