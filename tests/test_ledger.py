"""Run ledger: manifest lifecycle, stale-run detection, CLI browsing."""

import json
import multiprocessing
import os
import time

from repro.cli import main
from repro.obs import FakeClock, Histogram, Instrumentation
from repro.obs.ledger import (
    STALE_AFTER_SECONDS,
    RunLedger,
    effective_status,
    find_run_dir,
    list_runs,
    load_manifest,
    resolve_runs_dir,
)


def dead_pid() -> int:
    """A pid guaranteed to have existed and exited (so the liveness
    probe sees ProcessLookupError, not a never-allocated pid)."""
    process = multiprocessing.Process(target=lambda: None)
    process.start()
    process.join()
    return process.pid


class TestResolveRunsDir:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", "/env/runs")
        assert resolve_runs_dir("/arg/runs") == "/arg/runs"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", "/env/runs")
        assert resolve_runs_dir(None) == "/env/runs"

    def test_default_is_cwd_runs(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
        assert resolve_runs_dir(None) == os.path.join(os.getcwd(), "runs")


class TestRunLedger:
    def test_create_writes_running_stub(self, tmp_path):
        ledger = RunLedger.create(
            str(tmp_path), kind="experiment", argv=["experiment", "fig2"],
            config={"profile": "test"},
        )
        manifest = json.load(open(ledger.manifest_path))
        assert manifest["status"] == "running"
        assert manifest["kind"] == "experiment"
        assert manifest["argv"] == ["experiment", "fig2"]
        assert manifest["config"] == {"profile": "test"}
        assert manifest["run_id"] == ledger.run_id

    def test_finalize_includes_telemetry_and_extras(self, tmp_path):
        ledger = RunLedger.create(str(tmp_path), kind="experiment", argv=[])
        instr = Instrumentation(clock=FakeClock(tick=1.0))
        with instr.span("reorder"):
            pass
        instr.counter("memo.run.hit", 3)
        instr.gauge("corpus.size", 5)
        ledger.record("failures", {"count": 1})
        document = ledger.finalize(instr, exit_code=0, status="ok")
        on_disk = json.load(open(ledger.manifest_path))
        assert on_disk == json.loads(json.dumps(document, default=str))
        assert on_disk["status"] == "ok"
        assert on_disk["exit_code"] == 0
        assert on_disk["span_totals"]["reorder"] == {"calls": 1, "seconds": 1.0}
        assert on_disk["histograms"]["reorder"]["count"] == 1
        assert on_disk["histograms"]["reorder"]["p50"] == 1.0
        assert on_disk["counters"] == {"memo.run.hit": 3}
        assert on_disk["gauges"] == {"corpus.size": 5}
        assert on_disk["failures"] == {"count": 1}
        assert "bench" not in on_disk

    def test_finalize_without_instrumentation(self, tmp_path):
        ledger = RunLedger.create(str(tmp_path), kind="experiment", argv=[])
        document = ledger.finalize(None, exit_code=1, status="failed")
        assert document["status"] == "failed"
        assert "span_totals" not in document


class TestQueries:
    def make_run(self, runs_dir, run_id, **extra):
        ledger = RunLedger.create(str(runs_dir), kind="experiment", argv=[], run_id=run_id)
        for key, value in extra.items():
            ledger.record(key, value)
        ledger.finalize(None, exit_code=0, status="ok")
        return ledger

    def test_find_run_dir_exact_and_prefix(self, tmp_path):
        self.make_run(tmp_path, "abcdef123456")
        self.make_run(tmp_path, "abzzzz999999")
        assert find_run_dir(str(tmp_path), "abcdef123456").endswith("abcdef123456")
        assert find_run_dir(str(tmp_path), "abc").endswith("abcdef123456")
        # Ambiguous prefix resolves to nothing rather than guessing.
        assert find_run_dir(str(tmp_path), "ab") is None
        assert find_run_dir(str(tmp_path), "zz") is None

    def test_load_manifest_prefix(self, tmp_path):
        self.make_run(tmp_path, "deadbeef0001")
        manifest = load_manifest(str(tmp_path), "dead")
        assert manifest["run_id"] == "deadbeef0001"

    def test_list_runs_newest_first_and_surfaces_damage(self, tmp_path):
        self.make_run(tmp_path, "older0000001")
        newer = self.make_run(tmp_path, "newer0000001")
        # Force deterministic ordering regardless of wall-clock ties.
        manifest = json.load(open(newer.manifest_path))
        manifest["started_at"] += 1000
        json.dump(manifest, open(newer.manifest_path, "w"))
        broken = tmp_path / "broken000001"
        broken.mkdir()
        (broken / "manifest.json").write_text("{not json")
        listed = list_runs(str(tmp_path))
        assert [m["run_id"] for m in listed[:2]] == ["newer0000001", "older0000001"]
        damaged = [m for m in listed if m["run_id"] == "broken000001"]
        assert damaged and damaged[0]["status"] == "unreadable"

    def test_list_runs_missing_dir(self, tmp_path):
        assert list_runs(str(tmp_path / "nope")) == []


class TestStaleRuns:
    """A crashed run's ``running`` stub must render as ``stale``, not
    look live forever in ``repro runs list``."""

    def stub(self, **overrides):
        manifest = {
            "status": "running",
            "pid": os.getpid(),
            "host": __import__("socket").gethostname(),
            "started_at": time.time(),
        }
        manifest.update(overrides)
        return manifest

    def test_finalized_statuses_pass_through(self):
        for status in ("ok", "failed", "error", "unreadable"):
            assert effective_status({"status": status, "pid": 1}) == status

    def test_live_pid_stays_running(self):
        assert effective_status(self.stub()) == "running"

    def test_dead_pid_is_stale(self):
        assert effective_status(self.stub(pid=dead_pid())) == "stale"

    def test_other_host_uses_age_heuristic(self):
        fresh = self.stub(host="elsewhere", pid=1)
        assert effective_status(fresh) == "running"
        old = self.stub(
            host="elsewhere", pid=1,
            started_at=time.time() - STALE_AFTER_SECONDS - 60,
        )
        assert effective_status(old) == "stale"

    def test_legacy_stub_without_pid_uses_age(self):
        now = time.time()
        legacy = {"status": "running", "started_at": now - 10}
        assert effective_status(legacy, now=now) == "running"
        assert (
            effective_status(legacy, now=now + STALE_AFTER_SECONDS + 60)
            == "stale"
        )

    def test_unparseable_start_time_is_stale(self):
        assert effective_status({"status": "running"}) == "stale"
        assert effective_status({"status": "running", "started_at": "?"}) == "stale"

    def test_runs_list_renders_crashed_run_as_stale(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "ledger")
        crashed = RunLedger.create(runs_dir, kind="serve", argv=["serve"])
        # Simulate the crash: the stub survives, its pid does not.
        manifest = json.load(open(crashed.manifest_path))
        assert manifest["status"] == "running"
        manifest["pid"] = dead_pid()
        json.dump(manifest, open(crashed.manifest_path, "w"))
        live = RunLedger.create(runs_dir, kind="experiment", argv=[])
        finished = RunLedger.create(runs_dir, kind="experiment", argv=[])
        finished.finalize(None, exit_code=0, status="ok")
        assert main(["--runs-dir", runs_dir, "runs", "list"]) == 0
        rows = {
            line.split()[0]: line.split()[2]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith((crashed.run_id, live.run_id, finished.run_id))
        }
        assert rows[crashed.run_id] == "stale"
        assert rows[live.run_id] == "running"  # this test's own live pid
        assert rows[finished.run_id] == "ok"


class TestRunsCli:
    def test_experiment_writes_ledger(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))
        runs_dir = str(tmp_path / "ledger")
        assert main(["--runs-dir", runs_dir, "experiment", "table1",
                     "--profile", "test"]) == 0
        runs = os.listdir(runs_dir)
        assert len(runs) == 1
        manifest = json.load(open(os.path.join(runs_dir, runs[0], "manifest.json")))
        assert manifest["kind"] == "experiment"
        assert manifest["status"] == "ok"
        assert manifest["exit_code"] == 0
        assert manifest["config"]["profile"] == "test"
        assert "run ledger:" in capsys.readouterr().err
        # The parent's events landed in the run directory.
        assert os.path.exists(os.path.join(runs_dir, runs[0], "events.jsonl"))

    def test_no_ledger_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))
        runs_dir = str(tmp_path / "ledger")
        assert main(["--runs-dir", runs_dir, "--no-ledger", "experiment",
                     "table1", "--profile", "test"]) == 0
        assert not os.path.exists(runs_dir)

    def test_runs_list_and_show(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "ledger")
        ledger = RunLedger.create(runs_dir, kind="experiment", argv=["x"])
        ledger.finalize(None, exit_code=0, status="ok")
        assert main(["--runs-dir", runs_dir, "runs", "list"]) == 0
        out = capsys.readouterr().out
        assert ledger.run_id in out
        assert "experiment" in out
        assert main(["--runs-dir", runs_dir, "runs", "show", ledger.run_id[:6]]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == ledger.run_id

    def test_runs_show_empty_histogram_end_to_end(self, tmp_path, capsys):
        # An idle serve session finalizes with empty histograms (count
        # 0); the manifest must carry null percentiles and `repro runs
        # show` must render it — not crash on percentile-of-empty.
        runs_dir = str(tmp_path / "ledger")
        ledger = RunLedger.create(runs_dir, kind="serve", argv=["serve"])
        instr = Instrumentation(enabled=True)
        instr.counters.merge_histograms({"serve-request": Histogram()})
        ledger.finalize(instr, exit_code=0, status="ok")
        assert main(["--runs-dir", runs_dir, "runs", "show", ledger.run_id]) == 0
        shown = json.loads(capsys.readouterr().out)
        summary = shown["histograms"]["serve-request"]
        assert summary["count"] == 0
        assert summary["p50"] is None
        assert summary["p99"] is None
        assert shown["effective_status"] == "ok"

    def test_runs_show_unknown_id(self, tmp_path, capsys):
        assert main(["--runs-dir", str(tmp_path), "runs", "show", "nope"]) == 2
        assert "no run matching" in capsys.readouterr().err

    def test_runs_show_requires_id(self, tmp_path, capsys):
        assert main(["--runs-dir", str(tmp_path), "runs", "list"]) == 0
        assert main(["--runs-dir", str(tmp_path), "runs", "show"]) == 2

    def test_sweep_manifest_records_run_id(self, tmp_path, monkeypatch):
        from repro.resilience import SweepManifest

        cache = str(tmp_path / "memo")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache)
        runs_dir = str(tmp_path / "ledger")
        assert main(["--runs-dir", runs_dir, "experiment", "table1",
                     "--profile", "test"]) == 0
        run_id = os.listdir(runs_dir)[0]
        manifest = SweepManifest.load(cache, "test")
        assert manifest is not None
        assert run_id in manifest.run_ids
