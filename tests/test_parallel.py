"""repro.parallel: planning, pool execution, and sequential equivalence.

The core invariant: precomputing cells with ``jobs=N`` must leave the
store's ``perm/``, ``eval/`` and ``metrics/`` entries byte-identical to
the sequential path, so the drivers replaying the sweep produce the
same ``RunRecord``s either way.  Those entries hold no wall-clock
value, so the comparison runs under the real clock; measured
reordering seconds live in ``time/`` entries, which it leaves out.
"""

import functools
import os

import pytest

from repro.errors import ParallelExecutionError, ValidationError
from repro.experiments import fig3, fig6
from repro.experiments.run_all import DRIVERS
from repro.experiments.runner import ExperimentRunner
from repro.obs import FakeClock, Instrumentation, using
from repro.parallel import (
    ParallelStats,
    dedupe_cells,
    driver_plan,
    execute_cells,
    metrics_cell,
    plan_cells,
    run_cell,
)
from repro.store import DETERMINISTIC_KINDS
from tests.test_store import store_files

#: Drivers used for the (relatively) expensive equivalence tests; kept
#: small so the suite stays fast — fig3 covers metrics + run cells.
EQUIVALENCE_DRIVERS = {"fig3": fig3.run}


class TestCells:
    def test_dedupe_keeps_first_seen_order(self):
        a = run_cell("m1", "rabbit")
        b = metrics_cell("m1")
        assert dedupe_cells([a, b, a, b, a]) == [a, b]

    def test_cells_hash_and_pickle(self):
        import pickle

        cell = run_cell("m", "rabbit", kernel="spmv-coo", policy="belady")
        assert pickle.loads(pickle.dumps(cell)) == cell
        assert len({cell, run_cell("m", "rabbit", kernel="spmv-coo", policy="belady")}) == 1

    def test_labels(self):
        assert metrics_cell("m").label() == "metrics:m"
        assert run_cell("m", "t").label() == "m/t/spmv-csr/lru/none"


class TestPlanner:
    def test_every_paper_driver_is_planned_or_exempt(self):
        # table1 (static specs) and fig9 (generated-size sweep) plan
        # zero cells; every other paper driver must contribute.
        empty_ok = {"table1", "fig9"}
        for name, driver in DRIVERS.items():
            cells = driver_plan(driver, "test")
            if name in empty_ok:
                assert cells == []
            else:
                assert cells, f"driver {name} planned no cells"

    def test_plan_cells_deduplicates_across_drivers(self):
        cells = plan_cells(DRIVERS, "test")
        assert len(cells) == len(set(cells))
        # fig3, fig7, table2 all want (matrix, rabbit, spmv-csr, lru):
        # it must appear exactly once.
        rabbit_cells = [
            c for c in cells
            if c.kind == "run" and c.technique == "rabbit"
            and c.kernel == "spmv-csr" and c.policy == "lru" and c.mask == "none"
        ]
        matrices = [c.matrix for c in rabbit_cells]
        assert len(matrices) == len(set(matrices))

    def test_plan_matches_actual_requests(self, tmp_path):
        """The plan hook must cover exactly what run() requests."""

        requested = []

        class RecordingRunner(ExperimentRunner):
            def run(self, matrix, technique, kernel="spmv-csr", policy="lru",
                    mask="none"):
                requested.append(run_cell(matrix, technique, kernel, policy, mask))
                return super().run(matrix, technique, kernel=kernel,
                                   policy=policy, mask=mask)

            def matrix_metrics(self, matrix):
                requested.append(metrics_cell(matrix))
                return super().matrix_metrics(matrix)

        runner = RecordingRunner(profile="test", cache_dir=str(tmp_path / "memo"))
        fig6.run(profile="test", runner=runner)
        assert set(driver_plan(fig6.run, "test")) == set(requested)


class TestExecutor:
    def test_rejects_zero_jobs(self, tmp_path):
        with pytest.raises(ValidationError):
            execute_cells([], ExperimentRunner("test", cache_dir=str(tmp_path)), jobs=0)

    def test_jobs1_never_builds_a_pool(self, tmp_path, monkeypatch):
        import repro.parallel.executor as executor

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("jobs=1 must not spawn a process pool")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", forbidden)
        stats = execute_cells(
            [metrics_cell("test-mesh")],
            ExperimentRunner("test", cache_dir=str(tmp_path / "memo")),
            jobs=1,
        )
        assert stats.executed == 1

    def test_use_cache_false_skips_precompute(self, tmp_path):
        stats = execute_cells(
            [metrics_cell("test-mesh")],
            ExperimentRunner("test", cache_dir=str(tmp_path / "memo"), use_cache=False),
            jobs=2,
        )
        assert stats.executed == 0
        assert not os.path.exists(str(tmp_path / "memo"))

    def test_already_memoized_cells_are_skipped(self, tmp_path):
        runner = ExperimentRunner("test", cache_dir=str(tmp_path / "memo"))
        cells = [metrics_cell("test-mesh"), run_cell("test-mesh", "original")]
        first = execute_cells(cells, runner, jobs=1)
        assert (first.executed, first.skipped) == (2, 0)
        second = execute_cells(cells, runner, jobs=1)
        assert (second.executed, second.skipped) == (0, 2)

    def test_worker_crash_fails_loudly(self, tmp_path):
        bogus = metrics_cell("no-such-matrix")
        with pytest.raises(ParallelExecutionError, match="no-such-matrix"):
            execute_cells(
                [bogus],
                ExperimentRunner("test", cache_dir=str(tmp_path / "memo")),
                jobs=2,
            )

    def test_cells_sharing_permutation_group_into_one_task(self):
        from repro.parallel.executor import _group_cells

        cells = [
            run_cell("m1", "rabbit"),
            run_cell("m1", "rabbit", policy="belady"),
            run_cell("m1", "degsort"),
            metrics_cell("m1"),
            run_cell("m2", "rabbit"),
        ]
        groups = _group_cells(cells)
        assert [len(g) for g in groups] == [2, 1, 1, 1]
        assert groups[0] == (cells[0], cells[1])

    def test_grouping_reorders_once_per_matrix_technique(self, tmp_path):
        """Two cells sharing (matrix, technique) land in one worker, so
        the expensive permutation computes exactly once — same as the
        sequential path."""
        cells = [
            run_cell("test-mesh", "degsort"),
            run_cell("test-mesh", "degsort", policy="belady"),
        ]
        instr = Instrumentation(enabled=True)
        with using(instr):
            stats = execute_cells(
                cells,
                ExperimentRunner("test", cache_dir=str(tmp_path / "memo")),
                jobs=2,
            )
        assert stats.executed == 2
        assert instr.span_totals()["reorder"].calls == 1

    def test_counters_and_spans_merge_into_parent(self, tmp_path):
        cells = [
            run_cell("test-mesh", "original"),
            run_cell("test-mesh", "degsort"),
            metrics_cell("test-mesh"),
        ]
        instr = Instrumentation(enabled=True)
        with using(instr):
            stats = execute_cells(
                cells,
                ExperimentRunner("test", cache_dir=str(tmp_path / "memo")),
                jobs=2,
            )
        assert stats.executed == 3
        assert instr.counters.get("store.eval.miss") == 2
        assert instr.counters.get("store.metrics.miss") == 1
        assert instr.counters.get("parallel.cells.executed") == 3
        totals = instr.span_totals()
        for stage in ("load", "reorder", "trace", "cache-sim", "reorder-detect"):
            assert totals[stage].calls >= 1, stage


class TestParallelEquivalence:
    def test_parallel_memo_byte_identical_to_sequential(self, tmp_path):
        """jobs=2 and jobs=1 must write byte-identical store entries."""
        cells = plan_cells(EQUIVALENCE_DRIVERS, "test")
        seq_dir = str(tmp_path / "seq")
        par_dir = str(tmp_path / "par")
        execute_cells(cells, ExperimentRunner("test", cache_dir=seq_dir), jobs=1)
        execute_cells(cells, ExperimentRunner("test", cache_dir=par_dir), jobs=2)
        seq_files = store_files(seq_dir, DETERMINISTIC_KINDS)
        par_files = store_files(par_dir, DETERMINISTIC_KINDS)
        assert {path.split(os.sep)[0] for path in seq_files} == set(DETERMINISTIC_KINDS)
        assert seq_files.keys() == par_files.keys()
        assert seq_files == par_files

    def test_drivers_replay_parallel_memo_as_hits(self, tmp_path):
        """After precompute, a driver run is pure memo hits and the
        records match a from-scratch sequential driver run."""
        cells = plan_cells(EQUIVALENCE_DRIVERS, "test")
        par_dir = str(tmp_path / "par")
        execute_cells(
            cells,
            ExperimentRunner("test", cache_dir=par_dir),
            jobs=2,
            worker_clock=FakeClock(),
        )
        replay = Instrumentation(enabled=True)
        with using(replay):
            par_report = fig3.run(
                profile="test", runner=ExperimentRunner("test", cache_dir=par_dir)
            )
        assert replay.counters.get("store.eval.miss") == 0
        assert replay.counters.get("store.eval.hit") > 0

        seq_dir = str(tmp_path / "seq")
        with using(Instrumentation(enabled=True, clock=FakeClock())):
            seq_report = fig3.run(
                profile="test", runner=ExperimentRunner("test", cache_dir=seq_dir)
            )
        assert par_report.rows == seq_report.rows
        assert par_report.summary == seq_report.summary


class TestRunAllJobs:
    def test_run_all_jobs_argument_precomputes(self, tmp_path, monkeypatch):
        """run_all(jobs=2) precomputes the plan on the drivers' runner."""
        import repro.experiments.run_all as run_all_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))
        seen = {}
        real_run = fig3.run

        def fake_execute_cells(cells, runner, jobs, **kwargs):
            seen["cells"] = cells
            seen["jobs"] = jobs
            seen["runner"] = runner
            return ParallelStats(planned=len(cells), jobs=jobs)

        # wraps() keeps fig3's module, so the planner still finds its hook.
        @functools.wraps(real_run)
        def recording_fig3(profile="test", runner=None):
            seen["driver_runner"] = runner
            return real_run(profile=profile, runner=runner)

        monkeypatch.setattr(run_all_module, "execute_cells", fake_execute_cells)
        monkeypatch.setattr(run_all_module, "DRIVERS", {"fig3": recording_fig3})
        reports, failures = run_all_module.run_all(profile="test", jobs=2)
        assert seen["cells"] == plan_cells({"fig3": fig3.run}, "test")
        assert seen["jobs"] == 2
        assert seen["runner"].cache_dir == str(tmp_path / "memo")
        assert seen["driver_runner"] is seen["runner"]
        assert [r.experiment for r in reports] == ["fig3"]
        assert not failures

    def test_run_all_jobs1_skips_precompute(self, tmp_path, monkeypatch):
        import repro.experiments.run_all as run_all_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("jobs=1 must not touch repro.parallel")

        monkeypatch.setattr(run_all_module, "execute_cells", forbidden)
        monkeypatch.setattr(run_all_module, "plan_cells", forbidden)
        monkeypatch.setattr(run_all_module, "DRIVERS", {"fig3": fig3.run})
        reports, _ = run_all_module.run_all(profile="test", jobs=1)
        assert [r.experiment for r in reports] == ["fig3"]


class TestParallelTelemetry:
    """Worker telemetry folds into the parent deterministically."""

    #: Group-disjoint cells (one technique per matrix): jobs=1 and the
    #: pool execute the exact same span sequence per cell, because no
    #: graph load or permutation is shared across groups either way.
    DISJOINT_CELLS = [
        ("test-mesh", "degsort"),
        ("test-comm", "original"),
    ]

    def run_cells(self, cache_dir, jobs):
        cells = [run_cell(m, t) for m, t in self.DISJOINT_CELLS]
        instr = Instrumentation(enabled=True)
        with using(instr):
            stats = execute_cells(
                cells,
                ExperimentRunner("test", cache_dir=cache_dir),
                jobs=jobs,
                worker_clock=FakeClock(tick=1.0),
            )
        assert stats.executed == len(cells)
        return instr

    def test_merged_histograms_equal_single_process_run(self, tmp_path):
        """Acceptance: bucket-exact histogram merge across workers.

        Under a deterministic tick clock every span's duration is a
        pure function of the work inside it, so the histograms the
        parent assembles from two workers must equal the ones a single
        process builds from the same cells — bucket arrays included.
        """
        seq = self.run_cells(str(tmp_path / "seq"), jobs=1)
        par = self.run_cells(str(tmp_path / "par"), jobs=2)
        seq_hists = {n: h.to_json() for n, h in seq.counters.histograms().items()}
        par_hists = {n: h.to_json() for n, h in par.counters.histograms().items()}
        assert seq_hists.keys() == par_hists.keys()
        for name in seq_hists:
            assert seq_hists[name] == par_hists[name], name
        assert seq_hists["cell"]["count"] == len(self.DISJOINT_CELLS)
        assert seq_hists["cell.attempts"]["count"] == len(self.DISJOINT_CELLS)

    def test_gauge_merge_is_deterministic_max_wins(self, tmp_path):
        """jobs=2 gauge folding must not depend on completion order."""
        cells = [
            run_cell("test-mesh", "degsort"),
            run_cell("test-mesh", "degsort", policy="belady"),
            run_cell("test-comm", "original"),
        ]
        values = []
        for attempt in range(2):
            instr = Instrumentation(enabled=True)
            with using(instr):
                execute_cells(
                    cells,
                    ExperimentRunner(
                        "test", cache_dir=str(tmp_path / f"memo{attempt}")
                    ),
                    jobs=2,
                    worker_clock=FakeClock(),
                )
            values.append(instr.counters.gauge("parallel.group_cells"))
        # Groups have sizes 2 and 1; max-wins merge always reports 2,
        # whichever worker's snapshot lands last.
        assert values == [2.0, 2.0]

    def test_worker_snapshot_merge_matches_registry_merge(self, tmp_path):
        """The parent-side fold is CounterRegistry merge semantics."""
        instr = Instrumentation(enabled=True)
        instr.merge_counter_snapshot(
            {
                "counters": {"x": 2},
                "gauges": {"g": 5.0},
                "histograms": {"h": {"count": 1, "sum": 1.0, "min": 1.0,
                                     "max": 1.0, "zero": 0, "buckets": {"0": 1}}},
            }
        )
        instr.merge_counter_snapshot(
            {"counters": {"x": 3}, "gauges": {"g": 4.0}, "histograms": {}}
        )
        assert instr.counters.get("x") == 5
        assert instr.counters.gauge("g") == 5.0
        assert instr.counters.histogram("h").count == 1


class TestTraceStitching:
    def test_jobs2_experiment_yields_one_stitched_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        """Acceptance: `repro experiment fig2 --jobs 2` produces a
        single logical trace — worker cell spans parent under the
        parent experiment span — and the Chrome export validates."""
        import json as _json

        from repro.cli import main
        from repro.obs.tracefile import build_span_tree, read_events

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))
        runs_dir = str(tmp_path / "ledger")
        assert main([
            "--quiet", "--runs-dir", runs_dir,
            "experiment", "fig2", "--profile", "test", "--jobs", "2",
        ]) == 0
        run_id = os.listdir(runs_dir)[0]
        run_dir = os.path.join(runs_dir, run_id)
        # The parent wrote events.jsonl; each pool worker wrote its own
        # events-w<pid>.jsonl into the same run directory.
        event_files = sorted(
            name for name in os.listdir(run_dir) if name.endswith(".jsonl")
        )
        assert "events.jsonl" in event_files
        worker_files = [n for n in event_files if n.startswith("events-w")]
        assert worker_files, "no worker event files were written"

        result = read_events(run_dir)
        assert result.total_bad_lines == 0
        spans = result.spans()
        assert all(e.get("run_id") == run_id for e in spans)
        roots, orphans = build_span_tree(spans)
        assert orphans == 0
        assert [r.name for r in roots] == ["experiment"]
        experiment = roots[0]
        cell_children = [c for c in experiment.children if c.name == "cell"]
        assert cell_children, "worker cell spans did not stitch under experiment"
        worker_pids = {c.pid for c in cell_children}
        assert experiment.pid not in worker_pids
        # Every cell span descends a full pipeline (load/reorder/...).
        assert all(c.children for c in cell_children)

        # And the CLI renders + exports it.
        chrome_path = str(tmp_path / "chrome.json")
        capsys.readouterr()
        assert main([
            "--runs-dir", runs_dir, "trace", run_id, "--chrome", chrome_path
        ]) == 0
        out = capsys.readouterr().out
        assert "experiment" in out and "cell" in out
        with open(chrome_path) as handle:
            doc = _json.load(handle)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(spans)
        assert all(
            set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
            for e in complete
        )
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
