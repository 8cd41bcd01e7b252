"""Tests of the end-to-end benchmark.  Run: python -m pytest bench/tests -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(run_py: Path, args, cwd: Path, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_status() -> str:
    if not (ROOT / ".git").exists():
        return ""
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    ).stdout


def poison_memo(cache_dir: Path) -> int:
    """Write valid-envelope memo entries with wrong numbers for every
    sweep-tiny cell, where a runner defaulting to ``cache_dir`` reads them."""
    from repro.experiments.runner import ExperimentRunner
    from repro.resilience.integrity import atomic_write_document, wrap_payload
    import workload

    sweep = workload.WORKLOADS["sweep-tiny"]
    runner = ExperimentRunner(profile=sweep.profile, cache_dir=str(cache_dir))
    cells = sweep.setup(seed=0)
    for matrix, technique, kernel, policy in cells:
        record = dict.fromkeys(
            ("normalized_traffic", "normalized_runtime", "modeled_seconds",
             "ideal_seconds", "hit_rate", "dead_line_fraction", "reorder_seconds"),
            1.0,
        )
        record.update(
            matrix=matrix, technique=technique, kernel=kernel, policy=policy,
            mask="none", platform=runner.platform.name, traffic_bytes=1,
            compulsory_bytes=1, accesses=1, misses=1,
        )
        path = runner.run_cache_path(matrix, technique, kernel, policy)
        atomic_write_document(path, wrap_payload(record))
    return len(cells)


def test_tiny_run_is_isolated_and_reports_benchmark_json_metrics(tmp_path):
    assert poison_memo(tmp_path / ".repro_cache") == 360
    env = dict(os.environ)
    env.update(
        REPRO_CACHE_DIR=str(tmp_path / ".repro_cache"),
        REPRO_SIM_IMPL="no-such-engine",
        REPRO_FAULT_PLAN="no-such-file.json",
    )
    before = git_status()

    proc = run_bench(
        BENCH / "run.py",
        ["--workload", "sweep-tiny", "--seconds", "0", "--trace", "0"],
        tmp_path,
        env,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 360
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())

    proc = run_bench(
        BENCH / "run.py",
        ["--workload", "sweep-tiny", "--seconds", "0", "--trace", "1"],
        tmp_path,
        env,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    attributed = sum(metrics[f"{layer}.s"]["value"] for layer in layers.LAYER_NAMES)
    total = attributed + metrics["other.s"]["value"]
    assert total == pytest.approx(metrics["traced_wall_s"]["value"], rel=0.01)

    assert git_status() == before
    assert sorted(p.name for p in (BENCH / "out").iterdir() if p.is_dir()) == []


def copy_bench(dest: Path) -> Path:
    shutil.copytree(
        BENCH, dest / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests")
    )
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest / "bench" / "run.py"


def test_perturbed_expected_output_fails_the_run(tmp_path):
    run_py = copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    expected_path = tmp_path / "bench" / "expected" / "sweep-tiny.json"
    expected = json.loads(expected_path.read_text())
    key = sorted(expected["cells"])[0]
    expected["cells"][key]["misses"] += 1
    expected_path.write_text(json.dumps(expected))

    proc = run_bench(run_py, ["--workload", "sweep-tiny", "--seconds", "0"], tmp_path)
    assert proc.returncode != 0
    result = last_json(proc)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert key in proc.stderr


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    run_py = copy_bench(tmp_path)
    proc = run_bench(run_py, ["--workload", "sweep-tiny", "--seed", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_workload_names_agree():
    import run
    import workload

    names = [w["name"] for w in SPEC["workloads"]]
    assert list(run.WORKLOADS) == names == list(workload.WORKLOADS)


def span(span_id, name, seconds, parent=None):
    return {"span_id": span_id, "name": name, "seconds": seconds, "parent_id": parent}


def test_self_time_arithmetic_on_synthetic_spans():
    spans = [
        span("p", "pass", 10.0),
        span("c", "cell", 9.0, "p"),
        span("r", "reorder", 4.0, "c"),
        span("d", "reorder-detect", 2.5, "r"),
        span("b", "boba-place", 0.5, "r"),
        span("t", "trace", 1.0, "c"),
        span("s", "cache-sim", 3.0, "c"),
        span("q", "pass", 2.0),
        span("x", "request", 1.5, "q"),
        span("l", "serve-load", 1.0, "x"),
    ]
    own = layers.self_times(spans)
    assert own["p"] == pytest.approx(1.0)
    assert own["c"] == pytest.approx(1.0)
    assert own["r"] == pytest.approx(1.0)

    table, other = layers.layer_table(spans)
    assert table["community.detect"] == {"s": pytest.approx(2.5), "calls": 1}
    # boba-place belongs to reorder.order, but only reorder spans count as calls.
    assert table["reorder.order"] == {"s": pytest.approx(1.5), "calls": 1}
    assert table["trace.build"]["s"] == pytest.approx(1.0)
    assert table["cache.sim"]["s"] == pytest.approx(3.0)
    assert table["serve.store"] == {"s": pytest.approx(0.5), "calls": 1}
    assert table["serve.load"]["s"] == pytest.approx(1.0)
    # pass and cell self time is benchmark glue.
    assert other == pytest.approx(1.0 + 1.0 + 0.5)
    # Self times partition the root spans' 10 + 2 seconds.
    total = sum(row["s"] for row in table.values()) + other
    assert total == pytest.approx(12.0)
