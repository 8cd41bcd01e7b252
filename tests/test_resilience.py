"""repro.resilience: retries, timeouts, integrity, faults.

The acceptance-level scenarios live here too:

* kill-resume equivalence — a sweep interrupted by an injected worker
  kill and rerun against the same store produces memo bytes identical
  to an uninterrupted run, re-executing only unfinished cells;
* corrupt-cache recovery — with a slice of memo files randomly
  truncated/bit-flipped, a sweep completes, quarantines exactly the
  damaged files, and matches a clean-cache run;
* worker-crash recovery — a worker killed mid-group under ``jobs=2``
  with retries yields byte-identical output to a clean sequential run.
"""

import json
import os
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import (
    CacheIntegrityError,
    CellTimeoutError,
    ParallelExecutionError,
    SweepFailure,
    TransientError,
    ValidationError,
)
from repro.experiments import fig3
from repro.experiments.runner import ExperimentRunner
from repro.obs import FakeClock, Instrumentation, ProgressReporter, using
from repro.parallel import execute_cells, metrics_cell, plan_cells, run_cell
from repro.resilience import (
    CellFailure,
    Deadline,
    FailureReport,
    FaultInjector,
    FaultPlan,
    LegacyCacheEntry,
    RetryPolicy,
    cell_deadline,
    check_deadline,
    current_deadline,
    fault_point,
    install_injector,
    is_transient,
    load_or_quarantine,
    load_verified,
    payload_checksum,
    quarantine_path,
    reset_faults,
    unwrap_document,
    wrap_payload,
)
from repro.resilience.integrity import (
    atomic_write_document,
    atomic_write_payload,
    unique_tmp_path,
)
from repro.store import ResultStore
from tests.test_store import store_files

EQUIVALENCE_DRIVERS = {"fig3": fig3.run}


@pytest.fixture(autouse=True)
def _clean_faults():
    reset_faults()
    yield
    reset_faults()


def install_plan(document):
    """Install an in-process fault injector from a plan document."""
    install_injector(FaultInjector(FaultPlan.from_document(document)))


class TestRetryPolicy:
    def test_defaults_mean_no_retries(self):
        assert RetryPolicy().max_attempts == 1
        assert RetryPolicy.from_retries(2).max_attempts == 3

    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_seconds=1.0, backoff_factor=4.0,
            max_backoff_seconds=10.0,
        )
        assert [policy.delay(a) for a in (1, 2, 3, 4)] == [1.0, 4.0, 10.0, 10.0]

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValidationError):
            RetryPolicy().delay(0)

    def test_transient_classification(self):
        assert is_transient(TransientError("x"))
        assert is_transient(CellTimeoutError("x"))
        assert is_transient(CacheIntegrityError("x"))
        assert not is_transient(ValidationError("x"))
        assert not is_transient(RuntimeError("x"))


class TestCellDeadline:
    def test_fast_block_unaffected(self):
        with cell_deadline(5.0, "cell"):
            total = sum(range(100))
        assert total == 4950

    def test_slow_block_times_out(self):
        import time

        with pytest.raises(CellTimeoutError, match="slow-cell"):
            with cell_deadline(0.05, "slow-cell"):
                time.sleep(5.0)

    def test_none_disables_enforcement(self):
        with cell_deadline(None, "cell"):
            pass

    def test_main_thread_is_preemptive(self):
        with cell_deadline(5.0, "cell") as deadline:
            assert deadline.preemptive
            assert current_deadline() is deadline
        assert current_deadline() is None


class TestWorkerThreadDeadline:
    """Regression: cell_deadline silently no-opped off the main thread.

    SIGALRM timers only work on the main thread; before the fix a
    worker-thread deadline installed nothing at all, so serve handler
    threads ran unbounded.  Now enforcement degrades to cooperative
    checks — and observably so, via ``resilience.deadline_degraded``.
    """

    def run_in_thread(self, fn):
        result = {}

        def target():
            try:
                result["value"] = fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                result["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        thread.join(30.0)
        assert not thread.is_alive()
        if "error" in result:
            raise result["error"]
        return result["value"]

    def test_timeout_fires_inside_worker_thread(self):
        import time

        def body():
            with cell_deadline(0.05, "threaded-cell"):
                for _ in range(100):
                    time.sleep(0.01)
                    check_deadline()
            return "unreachable"

        with pytest.raises(CellTimeoutError, match="threaded-cell"):
            self.run_in_thread(body)

    def test_final_check_catches_unchecked_overrun(self):
        import time

        def body():
            # No cooperative checkpoints at all: the context manager's
            # exit check must still raise for the over-budget block.
            with cell_deadline(0.02, "unchecked-cell"):
                time.sleep(0.1)

        with pytest.raises(CellTimeoutError, match="unchecked-cell"):
            self.run_in_thread(body)

    def test_degraded_counter_ticks_off_main_thread_only(self):
        with using(Instrumentation(enabled=True)) as instr:
            with cell_deadline(5.0, "main-cell"):
                pass
            assert instr.counters.get("resilience.deadline_degraded") == 0

            def body():
                with cell_deadline(5.0, "thread-cell") as deadline:
                    assert not deadline.preemptive
                    assert current_deadline() is deadline
                assert current_deadline() is None

            self.run_in_thread(body)
            assert instr.counters.get("resilience.deadline_degraded") == 1

    def test_fast_threaded_block_unaffected(self):
        def body():
            with cell_deadline(5.0, "quick"):
                return sum(range(50))

        assert self.run_in_thread(body) == 1225

    def test_check_deadline_is_noop_without_deadline(self):
        check_deadline()  # must not raise

    def test_deadline_object_api(self):
        deadline = Deadline(30.0, "api")
        assert 0.0 < deadline.remaining() <= 30.0
        assert not deadline.expired()
        deadline.check()
        spent = Deadline(0.0, "spent")
        assert spent.expired()
        with pytest.raises(CellTimeoutError, match="spent"):
            spent.check()


class TestConcurrentWriters:
    """N threads writing one memo/store key never tear the entry."""

    def test_unique_tmp_paths_across_threads(self):
        paths = set()
        lock = threading.Lock()

        def worker():
            mine = [unique_tmp_path("/tmp/entry.json") for _ in range(200)]
            with lock:
                paths.update(mine)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert len(paths) == 8 * 200  # no collisions => no torn temp files

    def test_same_key_write_storm_never_torn(self, tmp_path):
        path = str(tmp_path / "cache" / "entry.json")
        payload = {"permutation": list(range(64)), "seconds": 0.25}
        document = wrap_payload(payload)
        start = threading.Barrier(12)
        errors = []

        def writer():
            start.wait(10.0)
            try:
                for _ in range(25):
                    atomic_write_document(path, document)
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        # The surviving entry verifies — never torn, never quarantined.
        with using(Instrumentation(enabled=True)) as instr:
            assert load_or_quarantine(
                path, cache_dir=str(tmp_path / "cache")
            ) == payload
            assert instr.counters.get("resilience.quarantined") == 0
        assert not os.path.exists(quarantine_path(str(tmp_path / "cache")))
        # No leaked temp files either.
        leftovers = [
            name
            for name in os.listdir(tmp_path / "cache")
            if name != "entry.json"
        ]
        assert leftovers == []

    def test_distinct_writers_last_wins_verified(self, tmp_path):
        # Distinct payloads racing one path: whichever wins, the entry
        # must verify as exactly one of them (atomic replace semantics).
        path = str(tmp_path / "entry.json")
        payloads = [{"writer": i} for i in range(6)]
        start = threading.Barrier(6)

        def writer(i):
            start.wait(10.0)
            atomic_write_document(path, wrap_payload(payloads[i]))

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert load_verified(path) in payloads


def canonical(value):
    """The envelope writer's encoding, spelled out independently."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def refuse_reencode(_payload):
    raise AssertionError("the writer's layout must verify without re-encoding")


#: JSON values the writer must round-trip through both read paths:
#: integers past 64 bits, floats the encoder spells specially (-0.0,
#: subnormals, inf, nan) and text the encoder escapes.
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**80)
    | st.integers(min_value=-(2**80), max_value=-(2**63) - 1)
    | st.floats()
    | st.sampled_from(
        [-0.0, 5e-324, 2.2e-308, float("inf"), float("-inf"), float("nan")]
    )
    | st.text(max_size=8)
    | st.text(alphabet="\x00\x1f\x7f\"\\\n\u00e9\u2028\ud800\U0001f600", max_size=8)
)
JSON_KEYS = st.text(max_size=4)
JSON_PAYLOADS = st.dictionaries(
    JSON_KEYS,
    st.recursive(
        JSON_SCALARS,
        lambda children: (
            st.lists(children, max_size=4) | st.dictionaries(JSON_KEYS, children, max_size=4)
        ),
        max_leaves=8,
    ),
    max_size=6,
)


class TestIntegrityEnvelope:
    def test_wrap_verify_roundtrip(self):
        payload = {"a": 1, "b": [1, 2, 3]}
        assert unwrap_document(wrap_payload(payload)) == payload

    def test_checksum_mismatch_detected(self):
        document = wrap_payload({"a": 1})
        document["payload"]["a"] = 2
        with pytest.raises(CacheIntegrityError, match="checksum"):
            unwrap_document(document)

    def test_schema_version_mismatch_detected(self):
        document = wrap_payload({"a": 1})
        document["__repro_cache__"]["schema"] = 999
        with pytest.raises(CacheIntegrityError, match="schema"):
            unwrap_document(document)

    def test_legacy_entry_is_its_own_type(self):
        with pytest.raises(LegacyCacheEntry):
            unwrap_document({"a": 1})

    def test_load_verified_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "entry.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(wrap_payload({"x": 1.5}), handle)
        assert load_verified(path) == {"x": 1.5}

    def test_writer_layout_is_canonical_json(self, tmp_path):
        path = str(tmp_path / "entry.json")
        payload = {"perm": [2, 0, 1], "name": "caf\u00e9", "seconds": 0.25}
        atomic_write_document(path, wrap_payload(payload))
        with open(path, "rb") as handle:
            data = handle.read()
        assert data == canonical(wrap_payload(payload)).encode()
        # Canonical key order puts the envelope first and the checksum
        # before the schema, so the payload bytes close the file.
        assert data == (
            b'{"__repro_cache__":{"checksum":"'
            + payload_checksum(payload).encode()
            + b'","schema":1},"payload":'
            + canonical(payload).encode()
            + b"}"
        )
        # The one-step writer encodes the payload once, to the same bytes.
        single = str(tmp_path / "single.json")
        atomic_write_payload(single, payload)
        with open(single, "rb") as handle:
            assert handle.read() == data

    def test_writer_layout_read_hashes_bytes_without_reencoding(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "entry.json")
        payload = {"perm": [2, 0, 1], "nested": {"b": None, "a": [1.5, True]}}
        atomic_write_document(path, wrap_payload(payload))
        monkeypatch.setattr(
            "repro.resilience.integrity.payload_checksum", refuse_reencode
        )
        assert load_verified(path) == payload

    def test_tampering_that_keeps_valid_json_quarantined(self, tmp_path):
        cache = tmp_path / "cache"
        payload = {"perm": [0, 1, 2]}
        atomic_write_document(str(cache / "digit.json"), wrap_payload(payload))
        atomic_write_document(str(cache / "checksum.json"), wrap_payload(payload))
        with open(cache / "digit.json", "rb") as handle:
            clean = handle.read()
        tampered = {
            "digit.json": clean.replace(b"[0,1,2]", b"[0,1,3]"),
            "checksum.json": clean.replace(
                payload_checksum(payload).encode(), b"0" * 64
            ),
        }
        for name, data in tampered.items():
            assert data != clean
            json.loads(data)  # still valid JSON in the writer's layout
            with open(cache / name, "wb") as handle:
                handle.write(data)
            with pytest.raises(CacheIntegrityError, match="checksum"):
                load_verified(str(cache / name))
        for name in tampered:
            assert load_or_quarantine(str(cache / name), cache_dir=str(cache)) is None
        assert sorted(os.listdir(quarantine_path(str(cache)))) == sorted(tampered)

    def test_older_indented_layout_still_verifies(self, tmp_path):
        path = str(tmp_path / "entry.json")
        payload = {"perm": [2, 0, 1], "seconds": 0.25}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(wrap_payload(payload), handle, indent=1, sort_keys=True)
        assert load_verified(path) == payload

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payload=JSON_PAYLOADS)
    def test_both_read_paths_agree_on_written_files(self, tmp_path, payload):
        path = str(tmp_path / "entry.json")
        atomic_write_document(path, wrap_payload(payload))
        single = str(tmp_path / "single.json")
        atomic_write_payload(single, payload)
        with open(path, "rb") as two_step, open(single, "rb") as one_step:
            assert one_step.read() == two_step.read()
        with open(path, encoding="utf-8") as handle:
            whole_document = unwrap_document(json.loads(handle.read()))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.resilience.integrity.payload_checksum", refuse_reencode
            )
            hashed = load_verified(path)
        # Encodings, not values: nan != nan.
        assert canonical(hashed) == canonical(whole_document) == canonical(payload)

    def test_truncated_file_quarantined(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        path = str(cache / "entry.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(wrap_payload({"x": 1}))[:20])
        with using(Instrumentation(enabled=True)) as instr:
            assert load_or_quarantine(path, cache_dir=str(cache)) is None
        assert not os.path.exists(path)
        assert os.listdir(quarantine_path(str(cache))) == ["entry.json"]
        assert instr.counters.get("resilience.quarantined") == 1

    def test_quarantine_name_collisions_suffixed(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        for _ in range(2):
            path = str(cache / "entry.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("garbage")
            assert load_or_quarantine(path, cache_dir=str(cache)) is None
        assert sorted(os.listdir(quarantine_path(str(cache)))) == [
            "entry.json",
            "entry.json.1",
        ]

class TestRunnerCacheRecovery:
    """A damaged memo never crashes the runner — quarantine + recompute."""

    def damage_one(self, cache_dir, kind):
        paths = ResultStore(cache_dir).entries((kind,))
        assert paths, f"no {kind} entry written"
        with open(paths[0], "r+b") as handle:
            handle.truncate(os.path.getsize(paths[0]) // 2)
        return paths[0]

    def test_truncated_run_entry_recomputed(self, tmp_path):
        cache = str(tmp_path / "cache")
        runner = ExperimentRunner(profile="test", cache_dir=cache)
        with using(Instrumentation(enabled=True, clock=FakeClock())):
            clean = runner.run("test-mesh", "degsort")
        damaged = self.damage_one(cache, "eval")

        fresh = ExperimentRunner(profile="test", cache_dir=cache)
        with using(Instrumentation(enabled=True, clock=FakeClock())) as instr:
            recomputed = fresh.run("test-mesh", "degsort")
        assert recomputed.to_json() == clean.to_json()
        assert instr.counters.get("resilience.quarantined") == 1
        assert instr.counters.get("store.eval.miss") == 1
        assert os.path.basename(damaged) in os.listdir(quarantine_path(cache))
        # The recomputed entry is valid again.
        assert load_verified(damaged)

    def test_truncated_metrics_entry_recomputed(self, tmp_path):
        cache = str(tmp_path / "cache")
        runner = ExperimentRunner(profile="test", cache_dir=cache)
        clean = runner.matrix_metrics("test-mesh")
        self.damage_one(cache, "metrics")
        fresh = ExperimentRunner(profile="test", cache_dir=cache)
        assert fresh.matrix_metrics("test-mesh").to_json() == clean.to_json()

    def test_truncated_reorder_time_remeasured(self, tmp_path):
        cache = str(tmp_path / "cache")
        runner = ExperimentRunner(profile="test", cache_dir=cache)
        runner.run("test-mesh", "degsort")
        self.damage_one(cache, "time")
        fresh = ExperimentRunner(profile="test", cache_dir=cache)
        assert fresh.reorder_seconds("test-mesh", "degsort") >= 0.0

    def test_legacy_unversioned_entry_quarantined_once(self, tmp_path):
        """Pre-envelope cache entries are migrated by quarantine."""
        cache = str(tmp_path / "cache")
        runner = ExperimentRunner(profile="test", cache_dir=cache)
        clean = runner.matrix_metrics("test-mesh")
        path = runner.metrics_cache_path("test-mesh")
        # Rewrite as a legacy (raw payload, no envelope) entry.
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(clean.to_json(), handle)
        fresh = ExperimentRunner(profile="test", cache_dir=cache)
        assert fresh.matrix_metrics("test-mesh").to_json() == clean.to_json()
        assert os.path.basename(path) in os.listdir(quarantine_path(cache))
        # Second read: the rewritten entry verifies, nothing new quarantined.
        again = ExperimentRunner(profile="test", cache_dir=cache)
        with using(Instrumentation(enabled=True)) as instr:
            again.matrix_metrics("test-mesh")
        assert instr.counters.get("resilience.quarantined") == 0
        assert instr.counters.get("store.metrics.hit") == 1


class TestFaultPlan:
    def test_parse_inline_and_file(self, tmp_path):
        document = {"faults": [{"site": "cell.execute", "action": "raise"}]}
        inline = FaultPlan.parse(json.dumps(document))
        assert inline.rules[0].site == "cell.execute"
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        from_file = FaultPlan.parse(str(path))
        assert from_file.rules[0].action == "raise"

    def test_malformed_plans_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan.parse("not json {{{")
        with pytest.raises(ValidationError):
            FaultPlan.from_document({"faults": [{"site": "x", "action": "explode"}]})
        with pytest.raises(ValidationError):
            FaultPlan.from_document({"faults": [{"site": "x", "action": "raise",
                                                 "exception": "nope"}]})
        with pytest.raises(ValidationError):
            FaultPlan.from_document(
                {"faults": [{"site": "x", "action": "raise", "bogus_key": 1}]}
            )

    def test_times_limits_firing(self):
        plan = FaultPlan.from_document(
            {"faults": [{"site": "s", "action": "raise", "times": 2}]}
        )
        injector = FaultInjector(plan)
        for _ in range(2):
            with pytest.raises(TransientError):
                injector.fire("s", label="cell")
        injector.fire("s", label="cell")  # budget exhausted: no fault

    def test_match_filters_by_label(self):
        plan = FaultPlan.from_document(
            {"faults": [{"site": "s", "action": "raise", "match": "soc-"}]}
        )
        injector = FaultInjector(plan)
        injector.fire("s", label="web-graph/rabbit")  # no match, no fault
        with pytest.raises(TransientError):
            injector.fire("s", label="soc-forum/rabbit")

    def test_state_dir_shares_budget_across_injectors(self, tmp_path):
        document = {
            "state_dir": str(tmp_path / "state"),
            "faults": [{"site": "s", "action": "raise", "times": 1}],
        }
        first = FaultInjector(FaultPlan.from_document(document))
        second = FaultInjector(FaultPlan.from_document(document))
        with pytest.raises(TransientError):
            first.fire("s", label="cell")
        second.fire("s", label="cell")  # the shared budget is spent

    def test_corrupt_action_truncates_file(self, tmp_path):
        victim = tmp_path / "memo.json"
        victim.write_text(json.dumps(wrap_payload({"x": 1})), encoding="utf-8")
        size = victim.stat().st_size
        install_plan({"faults": [{"site": "store.put", "action": "corrupt"}]})
        fault_point("store.put", path=str(victim))
        assert victim.stat().st_size == size // 2

    def test_times_cap_holds_across_racing_threads(self, monkeypatch, tmp_path):
        # Eight threads reach the site together, on its first use too:
        # the env plan must become one injector, whose budget they share.
        # Each round starts from an unparsed plan, so the first-use race
        # is run ten times.
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps({"faults": [{"site": "s", "action": "raise", "times": 4}]}),
            encoding="utf-8",
        )
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(plan))

        def race():
            barrier = threading.Barrier(8)
            fired = []

            def worker():
                barrier.wait(timeout=30)
                count = 0
                for _ in range(50):
                    try:
                        fault_point("s", label="cell")
                    except TransientError:
                        count += 1
                fired.append(count)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(fired) == 8
            return sum(fired)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            totals = []
            for _ in range(10):
                reset_faults()
                totals.append(race())
        finally:
            sys.setswitchinterval(interval)
        assert totals == [4] * 10

    def test_env_plan_parsed_once_per_value(self, monkeypatch, tmp_path):
        from repro.resilience.faults import get_injector

        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert get_injector() is None
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps({"faults": [{"site": "s", "action": "delay", "seconds": 0}]}),
        )
        injector = get_injector()
        assert injector is not None
        assert get_injector() is injector


class TestExecutorRetries:
    """In-process (jobs=1) retry/timeout/keep-going semantics."""

    def run_cells(self, tmp_path, cells, **kwargs):
        runner = ExperimentRunner("test", cache_dir=str(tmp_path / "memo"))
        sleeps = []
        with using(Instrumentation(enabled=True)) as instr:
            stats = execute_cells(
                cells, runner, jobs=1, sleep=sleeps.append, **kwargs
            )
        return stats, sleeps, instr

    def test_transient_fault_retried_to_success(self, tmp_path):
        install_plan(
            {"faults": [{"site": "cell.execute", "action": "raise",
                         "exception": "transient", "times": 2}]}
        )
        stats, sleeps, instr = self.run_cells(
            tmp_path,
            [metrics_cell("test-mesh")],
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.5),
        )
        assert stats.executed == 1
        assert stats.failed == 0
        assert sleeps == [0.5, 1.0]
        assert instr.counters.get("resilience.retries") == 2

    def test_retries_exhausted_raises_sweep_failure(self, tmp_path):
        install_plan(
            {"faults": [{"site": "cell.execute", "action": "raise",
                         "exception": "transient", "times": 99}]}
        )
        with pytest.raises(SweepFailure) as excinfo:
            self.run_cells(
                tmp_path,
                [metrics_cell("test-mesh")],
                retry=RetryPolicy(max_attempts=2),
            )
        report = excinfo.value.report
        assert report.labels() == ["metrics:test-mesh"]
        assert report.failures[0].attempts == 2
        assert report.failures[0].transient

    def test_validation_error_fails_fast_without_retry(self, tmp_path):
        install_plan(
            {"faults": [{"site": "cell.execute", "action": "raise",
                         "exception": "validation", "times": 99}]}
        )
        with pytest.raises(SweepFailure) as excinfo:
            self.run_cells(
                tmp_path,
                [metrics_cell("test-mesh")],
                retry=RetryPolicy(max_attempts=5),
            )
        failure = excinfo.value.report.failures[0]
        assert failure.attempts == 1  # deterministic: no retry burned
        assert not failure.transient

    def test_keep_going_records_and_continues(self, tmp_path):
        install_plan(
            {"faults": [{"site": "cell.execute", "action": "raise",
                         "exception": "validation", "match": "degsort",
                         "times": 99}]}
        )
        cells = [
            run_cell("test-mesh", "degsort"),
            run_cell("test-mesh", "original"),
            metrics_cell("test-mesh"),
        ]
        stats, _sleeps, instr = self.run_cells(tmp_path, cells, keep_going=True)
        assert stats.executed == 2
        assert stats.failed == 1
        assert stats.failures.labels() == ["test-mesh/degsort/spmv-csr/lru/none"]
        assert instr.counters.get("resilience.cells_failed") == 1
        assert "PARTIAL" in stats.failures.summary_text()

    def test_timeout_via_injected_delay_is_transient(self, tmp_path):
        install_plan(
            {"faults": [{"site": "cell.execute", "action": "delay",
                         "seconds": 5.0, "times": 1}]}
        )
        stats, _sleeps, instr = self.run_cells(
            tmp_path,
            [metrics_cell("test-mesh")],
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
            cell_timeout=0.1,
        )
        # First attempt times out (CellTimeoutError, transient), the
        # retry finds the delay budget spent and completes.
        assert stats.executed == 1
        assert instr.counters.get("resilience.retries") == 1


class TestKillResumeEquivalence:
    """Acceptance: interrupted + rerun == uninterrupted, byte for byte."""

    def test_kill_then_resume_matches_uninterrupted(self, tmp_path):
        cells = plan_cells(EQUIVALENCE_DRIVERS, "test")
        interrupted = str(tmp_path / "interrupted")
        clean = str(tmp_path / "clean")

        # Phase 1: strict run with an injected hard failure partway
        # through (in-process kill degrades to TransientError; with no
        # retry budget that kills the sweep like a SIGKILL would).
        install_plan(
            {"faults": [{"site": "cell.execute", "action": "kill",
                         "match": "test-kmer", "times": 99}]}
        )
        finished = ProgressReporter(len(cells), enabled=False)
        with pytest.raises(SweepFailure):
            execute_cells(
                cells,
                ExperimentRunner("test", cache_dir=interrupted),
                jobs=1,
                worker_clock=FakeClock(),
                progress=finished,
            )
        done_before = finished.done
        assert 0 < done_before < len(cells)

        # Phase 2: faults cleared, the same sweep again on the same
        # store.  Only unfinished cells run.
        reset_faults()
        with using(Instrumentation(enabled=True)) as instr:
            stats = execute_cells(
                cells,
                ExperimentRunner("test", cache_dir=interrupted),
                jobs=1,
                worker_clock=FakeClock(),
            )
        assert stats.skipped == done_before
        assert stats.executed == len(cells) - done_before
        assert instr.counters.get("parallel.cells.skipped") == done_before

        # Uninterrupted reference run.
        execute_cells(
            cells,
            ExperimentRunner("test", cache_dir=clean),
            jobs=1,
            worker_clock=FakeClock(),
        )
        assert store_files(interrupted) == store_files(clean)


class TestCorruptCacheRecovery:
    """Acceptance: 10% of store entries damaged -> quarantine + identical results."""

    def test_sweep_completes_over_randomly_damaged_cache(self, tmp_path):
        cells = plan_cells(EQUIVALENCE_DRIVERS, "test")
        cache = str(tmp_path / "memo")
        execute_cells(
            cells,
            ExperimentRunner("test", cache_dir=cache),
            jobs=1,
            worker_clock=FakeClock(),
        )
        clean_bytes = store_files(cache)

        rng = random.Random(42)
        # Damage only entries the fig3 replay reads whole (a stored
        # cell's perm entry is never read on a replay).
        names = sorted(n for n in clean_bytes if n.startswith(("eval", "metrics")))
        damaged = rng.sample(names, max(2, len(names) // 10))
        for name in damaged:
            path = os.path.join(cache, name)
            if rng.random() < 0.5:
                with open(path, "r+b") as handle:
                    handle.truncate(os.path.getsize(path) // 2)
            else:
                data = bytearray(clean_bytes[name])
                data[len(data) // 2] ^= 0xFF
                with open(path, "wb") as handle:
                    handle.write(bytes(data))

        # The sweep must complete without raising: executor skips the
        # (existing) files, the driver replay quarantines + recomputes.
        with using(Instrumentation(enabled=True)) as instr:
            report = fig3.run(
                profile="test",
                runner=ExperimentRunner("test", cache_dir=cache),
            )
        assert instr.counters.get("resilience.quarantined") == len(damaged)
        quarantined = os.listdir(quarantine_path(cache))
        assert sorted(quarantined) == sorted(os.path.basename(n) for n in damaged)

        # Recompute wrote fresh valid entries; results match a clean run.
        with using(Instrumentation(enabled=True, clock=FakeClock())):
            reference = fig3.run(
                profile="test",
                runner=ExperimentRunner("test", cache_dir=str(tmp_path / "ref")),
            )
        assert report.rows == reference.rows
        assert report.summary == reference.summary


class _ClockThatKillsWorkers(FakeClock):
    """A fake clock whose unpickled copy ends the process unpickling it."""

    def __reduce__(self):
        return (os._exit, (86,))


class TestWorkerCrashRecovery:
    """Acceptance: a worker killed mid-group under jobs=2 retries to a
    byte-identical memo vs a clean sequential run."""

    def test_killed_worker_retried_byte_identical(self, tmp_path, monkeypatch):
        cells = plan_cells(EQUIVALENCE_DRIVERS, "test")
        par_dir = str(tmp_path / "par")
        seq_dir = str(tmp_path / "seq")

        plan = {
            "state_dir": str(tmp_path / "fault-state"),
            "faults": [{"site": "cell.execute", "action": "kill", "times": 1}],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(plan_path))

        with using(Instrumentation(enabled=True)) as instr:
            stats = execute_cells(
                cells,
                ExperimentRunner("test", cache_dir=par_dir),
                jobs=2,
                worker_clock=FakeClock(),
                retry=RetryPolicy(max_attempts=3, backoff_seconds=0.0),
            )
        assert stats.failed == 0
        # One kill charges at most the groups the two workers had
        # started; the groups still queued are resubmitted free.
        assert 1 <= stats.retried <= 2
        assert 1 <= instr.counters.get("resilience.retries") <= 2
        # The kill fired exactly once (cross-process state dir).
        assert os.listdir(plan["state_dir"]) == ["fault-0-0"]

        monkeypatch.delenv("REPRO_FAULT_PLAN")
        reset_faults()
        execute_cells(
            cells,
            ExperimentRunner("test", cache_dir=seq_dir),
            jobs=1,
            worker_clock=FakeClock(),
        )
        assert store_files(par_dir) == store_files(seq_dir)

    def test_pool_broken_before_any_group_charges_every_group(self, tmp_path):
        # Every worker dies unpickling its clock, before any group
        # starts, so no group leaves a marker: each is still charged and
        # runs out of attempts instead of being resubmitted forever.
        retry_rounds = []

        def sleep(seconds):
            retry_rounds.append(seconds)
            if len(retry_rounds) > 3:
                raise RuntimeError("broken rounds resubmitted without a charge")

        stats = execute_cells(
            [metrics_cell("test-comm"), metrics_cell("test-mesh")],
            ExperimentRunner("test", cache_dir=str(tmp_path / "memo")),
            jobs=2,
            worker_clock=_ClockThatKillsWorkers(),
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
            keep_going=True,
            sleep=sleep,
        )
        assert len(retry_rounds) == 1
        assert (stats.executed, stats.retried, stats.failed) == (0, 2, 2)

    def test_strict_mode_still_raises_parallel_execution_error(self, tmp_path):
        bogus = metrics_cell("no-such-matrix")
        with pytest.raises(ParallelExecutionError, match="no-such-matrix"):
            execute_cells(
                [bogus],
                ExperimentRunner("test", cache_dir=str(tmp_path / "memo")),
                jobs=2,
            )


class TestRunAllResilience:
    def test_keep_going_records_driver_failure(self, tmp_path, monkeypatch):
        import repro.experiments.run_all as run_all_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))

        def exploding_driver(profile="test", runner=None):
            raise RuntimeError("driver blew up")

        monkeypatch.setattr(
            run_all_module,
            "DRIVERS",
            {"boom": exploding_driver, "fig3": fig3.run},
        )
        with using(Instrumentation(enabled=True)) as instr:
            reports, failures = run_all_module.run_all(
                profile="test", keep_going=True
            )
        assert [r.experiment for r in reports] == ["fig3"]
        assert failures.labels() == ["driver:boom"]
        assert failures.failures[0].error_type == "RuntimeError"
        assert instr.counters.get("resilience.drivers_failed") == 1

    def test_strict_mode_propagates_driver_failure(self, tmp_path, monkeypatch):
        import repro.experiments.run_all as run_all_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))

        def exploding_driver(profile="test", runner=None):
            raise RuntimeError("driver blew up")

        monkeypatch.setattr(run_all_module, "DRIVERS", {"boom": exploding_driver})
        with pytest.raises(RuntimeError, match="driver blew up"):
            run_all_module.run_all(profile="test")

    @pytest.mark.parametrize(
        "kwargs, flag",
        [
            ({"retry": RetryPolicy(max_attempts=2)}, "--retries"),
            ({"cell_timeout": 0.0001}, "--cell-timeout"),
        ],
    )
    def test_precompute_flags_rejected_without_a_pool(
        self, tmp_path, monkeypatch, kwargs, flag
    ):
        """Retries and the cell timeout act only in the pool precompute,
        so a jobs=1 sweep refuses them before running any driver."""
        import repro.experiments.run_all as run_all_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "memo"))

        def forbidden(profile="test", runner=None):  # pragma: no cover - guard
            raise AssertionError("a rejected sweep must not run drivers")

        monkeypatch.setattr(run_all_module, "DRIVERS", {"fig3": forbidden})
        with pytest.raises(ValidationError, match=flag):
            run_all_module.run_all(profile="test", jobs=1, **kwargs)
