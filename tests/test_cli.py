"""CLI smoke tests (everything runs on the test profile)."""

import json

import pytest

import repro
from repro.cli import main


class TestCli:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "repro" in capsys.readouterr().out

    def test_corpus_list(self, capsys):
        assert main(["corpus", "list", "--profile", "test"]) == 0
        out = capsys.readouterr().out
        assert "test-comm" in out
        assert "selected" in out

    def test_techniques(self, capsys):
        assert main(["techniques"]) == 0
        out = capsys.readouterr().out
        assert "rabbit++" in out
        assert "gorder" in out

    def test_metrics(self, capsys):
        assert main(["metrics", "test-mesh", "--profile", "test"]) == 0
        out = capsys.readouterr().out
        assert "insularity" in out
        assert "skew" in out

    def test_evaluate(self, capsys):
        assert main(
            ["evaluate", "test-mesh", "--technique", "rabbit", "--profile", "test"]
        ) == 0
        out = capsys.readouterr().out
        assert "normalized_traffic" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1", "--profile", "test"]) == 0
        assert "a6000" in capsys.readouterr().out

    def test_export(self, tmp_path, capsys):
        path = tmp_path / "out.mtx"
        assert main(["export", "test-mesh", str(path)]) == 0
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header.startswith("%%MatrixMarket")

    def test_unknown_technique_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "test-mesh", "--technique", "bogus"])

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestObservabilityCli:
    def test_profile_prints_stage_breakdown(self, capsys):
        assert main(
            ["profile", "test-mesh", "--technique", "rabbit", "--profile", "test"]
        ) == 0
        out = capsys.readouterr().out
        assert "cache-sim" in out
        assert "reorder" in out
        assert "traffic breakdown" in out
        assert "normalized_traffic" in out

    def test_cache_stats(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))
        assert main(["evaluate", "test-mesh", "--technique", "rabbit",
                     "--profile", "test"]) == 0
        capsys.readouterr()
        assert main(["cache-stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path / "memo") in out
        assert "eval" in out and "metrics" in out
        assert "total" in out

    def test_log_file_emits_valid_jsonl(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))
        log = tmp_path / "run.jsonl"
        assert main(
            ["--log-file", str(log), "--quiet",
             "experiment", "fig2", "--profile", "test"]
        ) == 0
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert events, "expected at least one event"
        kinds = {e["kind"] for e in events}
        assert kinds == {"span", "counters"}
        span_names = {e["name"] for e in events if e["kind"] == "span"}
        assert "experiment.fig2" in span_names
        assert "cache-sim" in span_names
        counters = [e for e in events if e["kind"] == "counters"][-1]
        assert counters["counters"].get("store.eval.miss", 0) >= 1

    def test_quiet_flag_accepted_without_observability(self, capsys):
        assert main(["--quiet", "techniques"]) == 0
        assert "rabbit++" in capsys.readouterr().out

    def test_profile_prints_histogram_percentiles(self, capsys):
        assert main(
            ["profile", "test-mesh", "--technique", "rabbit", "--profile", "test"]
        ) == 0
        out = capsys.readouterr().out
        assert "latency percentiles" in out
        # The percentile table carries the phase histograms, not just
        # span-total sums.
        header = [line for line in out.splitlines() if "p50" in line][0]
        assert "p90" in header and "p99" in header
        assert any(
            line.startswith("cache-sim") for line in out.splitlines()
        )

    def test_cache_stats_reports_empty_quarantine(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))
        assert main(["cache-stats"]) == 0
        assert "quarantine: empty" in capsys.readouterr().out

    def test_cache_stats_reports_quarantine_contents(
        self, tmp_path, capsys, monkeypatch
    ):
        memo = tmp_path / "memo"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(memo))
        assert main(["--quiet", "metrics", "test-mesh", "--profile", "test"]) == 0
        # Damage a store entry, then let doctor quarantine it.
        (victim,) = (memo / "metrics").rglob("*.json")
        victim.write_text("{corrupt")
        assert main(["doctor", "--quarantine"]) == 1
        capsys.readouterr()
        assert main(["cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "quarantine: 1 file(s)" in out
        assert "bytes" in out
        assert "newest:" in out and victim.name.split(".json")[0] in out

    def test_span_events_carry_v2_schema_fields(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))
        log = tmp_path / "run.jsonl"
        assert main(
            ["--log-file", str(log), "--quiet", "--no-ledger",
             "metrics", "test-mesh", "--profile", "test"]
        ) == 0
        spans = [
            json.loads(line)
            for line in log.read_text().splitlines()
            if json.loads(line)["kind"] == "span"
        ]
        assert spans
        for event in spans:
            assert event["v"] == 2
            assert len(event["span_id"]) == 16
            assert "parent_id" in event
            assert event["pid"] > 0 and event["tid"] > 0
        # Nested spans reference their parent's id.
        by_id = {e["span_id"]: e for e in spans}
        children = [e for e in spans if e["parent_id"] is not None]
        assert children
        assert all(e["parent_id"] in by_id for e in children)


class TestParallelCli:
    def test_experiment_jobs_flag_precomputes_then_replays(
        self, tmp_path, capsys, monkeypatch
    ):
        """--jobs 2 must produce the normal report, with every cell
        precomputed into the shared memo by the worker pool."""
        memo = tmp_path / "memo"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(memo))
        assert main(
            ["--quiet", "experiment", "fig3", "--profile", "test", "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        run_files = list((memo / "eval").rglob("*.json"))
        assert len(run_files) == 6  # one rabbit spmv-csr cell per test matrix

    def test_experiment_jobs_default_is_sequential(self, tmp_path, monkeypatch):
        import repro.parallel.executor as executor

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("--jobs 1 must not spawn a pool")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", forbidden)
        assert main(["--quiet", "experiment", "fig4", "--profile", "test"]) == 0

    def test_run_all_parser_wired(self, capsys):
        with pytest.raises(SystemExit):
            main(["run-all", "--help"])
        out = capsys.readouterr().out
        assert "--jobs" in out


class TestDoctorCli:
    def write_cache(self, memo, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(memo))
        assert main(["--quiet", "metrics", "test-mesh", "--profile", "test"]) == 0

    def test_clean_cache_exits_zero(self, tmp_path, capsys, monkeypatch):
        self.write_cache(tmp_path / "memo", monkeypatch)
        capsys.readouterr()
        assert main(["doctor"]) == 0
        assert "store integrity: OK" in capsys.readouterr().out

    def test_corrupt_cache_exits_nonzero_naming_file(
        self, tmp_path, capsys, monkeypatch
    ):
        memo = tmp_path / "memo"
        self.write_cache(memo, monkeypatch)
        (victim,) = (memo / "metrics").rglob("*.json")
        victim.write_text("{ truncated", encoding="utf-8")
        capsys.readouterr()
        assert main(["doctor"]) == 1
        captured = capsys.readouterr()
        assert f"DAMAGED {victim.relative_to(memo)}" in captured.out
        assert "damaged" in captured.err

    def test_quarantine_flag_moves_damaged_files(
        self, tmp_path, capsys, monkeypatch
    ):
        memo = tmp_path / "memo"
        self.write_cache(memo, monkeypatch)
        (victim,) = (memo / "metrics").rglob("*.json")
        victim.write_text("{ truncated", encoding="utf-8")
        assert main(["doctor", "--quarantine"]) == 1
        assert not victim.exists()
        assert (memo / "quarantine" / victim.name).exists()
        # The cache is healthy again once the damage is quarantined.
        capsys.readouterr()
        assert main(["doctor"]) == 0

    def test_explicit_cache_dir_flag(self, tmp_path, capsys):
        assert main(["doctor", "--cache-dir", str(tmp_path / "nowhere")]) == 0
        assert "(missing)" in capsys.readouterr().out

    def test_store_scan_and_quarantine(self, tmp_path, capsys):
        from repro.store import ResultStore, perm_key

        store_dir = str(tmp_path / "serve-store")
        store = ResultStore(store_dir)
        store.put("perm", perm_key("d0", "rcm"), {"permutation": [0]})
        victim = store.put("perm", perm_key("d1", "rcm"), {"permutation": [1]})
        assert main(["doctor", "--store", "--cache-dir", store_dir]) == 0
        assert "store integrity: OK" in capsys.readouterr().out

        with open(victim, "r+b") as handle:
            handle.truncate(8)
        assert main(["doctor", "--store", "--cache-dir", store_dir]) == 1
        captured = capsys.readouterr()
        assert "DAMAGED perm/" in captured.out
        assert "damaged" in captured.err

        assert main(
            ["doctor", "--store", "--quarantine", "--cache-dir", store_dir]
        ) == 1
        assert "quarantined 1 entries" in capsys.readouterr().out
        capsys.readouterr()
        assert main(["doctor", "--store", "--cache-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "store integrity: OK" in out
        assert "QUARANTINED" in out


class TestServeCli:
    def test_serve_overload_flags_parsed(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        for flag in (
            "--max-inflight", "--max-queue", "--queue-timeout",
            "--drain-timeout", "--breaker-min-failures", "--breaker-recovery",
        ):
            assert flag in out
        with pytest.raises(SystemExit):
            main(["serve-bench", "--help"])
        out = capsys.readouterr().out
        for flag in ("--overload", "--offered-factor", "--min-goodput"):
            assert flag in out

    def test_overload_bench_rejects_external_url(self, capsys):
        # Overload mode spawns its own calibrated servers; pointing it
        # at an external endpoint would shed against unknown capacity.
        assert main(
            ["serve-bench", "--overload", "--url", "http://localhost:1"]
        ) == 2
        assert "--overload" in capsys.readouterr().err


class TestResilienceCli:
    def test_sweep_flags_parsed(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        out = capsys.readouterr().out
        for flag in ("--retries", "--cell-timeout", "--keep-going"):
            assert flag in out

    def test_experiment_with_resilience_flags(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))
        assert main(
            [
                "--quiet", "experiment", "fig3", "--profile", "test",
                "--jobs", "2", "--retries", "2", "--keep-going",
            ]
        ) == 0
        assert "fig3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value", [("--retries", "2"), ("--cell-timeout", "0.0001")]
    )
    def test_precompute_flags_need_jobs(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        """Only the pool precompute reads these flags, so a --jobs 1
        sweep rejects them as a usage error instead of ignoring them."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))
        assert main(
            ["--no-ledger", "experiment", "fig2", "--profile", "test", flag, value]
        ) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "--jobs > 1" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "memo").exists()

    def test_strict_sweep_failure_prints_report_not_traceback(
        self, tmp_path, capsys, monkeypatch
    ):
        """Without --keep-going a permanently failed cell still ends in
        the failure report: exit 1, the cell named on stderr, and a
        ledger whose status is failed and which records the failure."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))
        runs_dir = tmp_path / "ledger"
        assert main(
            ["--quiet", "--runs-dir", str(runs_dir), "experiment", "fig2",
             "--profile", "test", "--jobs", "2", "--cell-timeout", "0.0001"]
        ) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        (run_dir,) = runs_dir.iterdir()
        ledger = json.loads((run_dir / "manifest.json").read_text())
        assert ledger["status"] == "failed"
        assert ledger["exit_code"] == 1
        failures = ledger["failures"]["failures"]
        assert failures
        for failure in failures:
            assert failure["error_type"] == "CellTimeoutError"
            assert f"FAILED {failure['label']}: CellTimeoutError" in captured.err

    def test_keep_going_records_driver_failure(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli
        import repro.experiments.run_all as run_all_module
        from repro.experiments import fig3

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))

        def exploding_driver(profile="test", runner=None):
            raise RuntimeError("driver blew up")

        drivers = {"boom": exploding_driver, "fig3": fig3.run}
        monkeypatch.setattr(run_all_module, "DRIVERS", drivers)
        monkeypatch.setattr(cli, "DRIVERS", drivers)
        runs_dir = tmp_path / "ledger"
        assert main(
            ["--quiet", "--runs-dir", str(runs_dir), "run-all", "--profile", "test",
             "--keep-going"]
        ) == 1
        captured = capsys.readouterr()
        assert "fig3" in captured.out
        assert "FAILED driver:boom: RuntimeError: driver blew up" in captured.err
        (run_dir,) = runs_dir.iterdir()
        ledger = json.loads((run_dir / "manifest.json").read_text())
        assert [f["label"] for f in ledger["failures"]["failures"]] == ["driver:boom"]
        assert ledger["counters"]["resilience.drivers_failed"] == 1
        assert ledger["exit_code"] == 1


class TestScaleBenchCli:
    def test_bench_reorder_scale_mode(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_path = tmp_path / "BENCH_reorder.json"
        assert main(
            [
                "bench-reorder",
                "--scale", "9",
                "--edge-factor", "8",
                "--shards", "2",
                "--jobs", "1",
                "--json", str(out_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "scale workload: 2^9 = 512 nodes" in out
        assert "sharded detection" in out
        assert "peak RSS (KB):" in out
        payload = json.loads(out_path.read_text())
        assert payload["mode"] == "scale"
        assert payload["workload"]["memmap"] is True
        assert payload["detection"]["sharded"]["labels_sha256"]
        names = [row["name"] for row in payload["techniques"]]
        assert names == ["rabbit", "boba", "dbg"]
        assert all(row["permutation_sha256"] for row in payload["techniques"])
        assert payload["rss_peak_kb"]["overall"] > 0

    def test_scale_mode_no_memmap_stays_in_ram(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_path = tmp_path / "bench.json"
        assert main(
            [
                "bench-reorder",
                "--scale", "8",
                "--edge-factor", "8",
                "--no-memmap",
                "--json", str(out_path),
            ]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["workload"]["memmap"] is False
        assert not (tmp_path / "cache" / "matrices").exists()
