"""Serve-tier tests: store, coalescing, service pipeline, overload
machinery (admission, breakers, degraded mode, drain) and the HTTP
endpoint over a real socket (coalescing counter-asserted, byte-identical
store hits, deadline 504s that don't kill the server)."""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro import obs
from repro.errors import (
    BreakerOpenError,
    CorpusError,
    OverloadedError,
    ValidationError,
)
from repro.graphs.corpus import load_graph, load_matrix
from repro.graphs.io import write_matrix_market
from repro.obs import Instrumentation
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    install_injector,
    reset_faults,
)
from repro.serve.admission import Admission
from repro.serve.bench import bench_payload, wait_for_server, zipf_trace
from repro.serve.breaker import CircuitBreaker
from repro.serve.client import ClientResponse, ServeClient, idempotency_key
from repro.serve.coalesce import SingleFlight
from repro.serve.httpd import make_server, render_body
from repro.serve.service import ReorderService, ServeConfig
from repro.serve.store import (
    PermutationStore,
    eval_key,
    perm_key,
    structure_digest,
)


@pytest.fixture
def instr():
    """Enabled process-wide instrumentation (visible to server threads)."""
    instrumentation = Instrumentation(enabled=True)
    with obs.using(instrumentation):
        yield instrumentation


@pytest.fixture
def service(tmp_path, instr):
    return ReorderService(
        ServeConfig(profile="test", store_dir=str(tmp_path / "store"))
    )


@pytest.fixture
def faults():
    yield
    reset_faults()


def _install_fault(site: str, **rule) -> None:
    plan = FaultPlan.from_document([{"site": site, **rule}])
    install_injector(FaultInjector(plan))


def _install_faults(rules) -> None:
    install_injector(FaultInjector(FaultPlan.from_document(list(rules))))


# -- store ---------------------------------------------------------------


def test_structure_digest_ignores_values():
    csr = load_graph("test-comm").adjacency
    digest = structure_digest(csr)
    scaled = type(csr)(
        csr.n_rows, csr.n_cols, csr.row_offsets, csr.col_indices,
        csr.values * 3.0,
    )
    assert structure_digest(scaled) == digest
    other = load_graph("test-mesh").adjacency
    assert structure_digest(other) != digest


def test_keys_depend_on_every_component():
    keys = {
        perm_key("d1", "rcm"),
        perm_key("d2", "rcm"),
        perm_key("d1", "rabbit"),
        eval_key("d1", "rcm", "spmv-csr", "lru", "p"),
        eval_key("d1", "rcm", "spmv-csr", "belady", "p"),
        eval_key("d1", "rcm", "spmm-csr-4", "lru", "p"),
        eval_key("d1", "rcm", "spmv-csr", "lru", "q"),
    }
    assert len(keys) == 7


def test_store_roundtrip_and_quarantine(tmp_path, instr):
    store = PermutationStore(str(tmp_path / "store"))
    key = perm_key("digest", "rcm")
    assert store.get("perm", key) is None
    path = store.put("perm", key, {"permutation": [0, 1, 2]})
    assert store.get("perm", key) == {"permutation": [0, 1, 2]}
    # Damage the entry: the read must miss and quarantine, not crash.
    with open(path, "r+b") as handle:
        handle.truncate(20)
    assert store.get("perm", key) is None
    assert store.stats()["quarantine"]["entries"] == 1
    with pytest.raises(ValueError):
        store.path("nope", key)


# -- coalescing ----------------------------------------------------------


def test_singleflight_coalesces_concurrent_callers(instr):
    flight = SingleFlight()
    calls = []
    release = threading.Event()
    started = threading.Barrier(4)
    results = []

    def compute():
        calls.append(1)
        release.wait(5.0)
        return "value"

    def worker():
        started.wait(5.0)
        results.append(flight.do("k", compute))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    # Hold the leader inside compute() until all three followers have
    # been classified (the wait counter ticks after the under-lock
    # leader/follower decision), so none can arrive late and lead a
    # fresh flight of its own.
    stop = time.monotonic() + 10.0
    while instr.counters.get("serve.coalesce.wait") < 3:
        assert time.monotonic() < stop, "followers never joined the flight"
        time.sleep(0.001)
    release.set()
    for t in threads:
        t.join(10.0)
    assert len(calls) == 1
    assert sorted(led for _, led in results) == [False, False, False, True]
    assert all(value == "value" for value, _ in results)
    assert flight.inflight() == 0


def test_singleflight_propagates_leader_error(instr):
    flight = SingleFlight()
    gate = threading.Event()
    errors = []

    def compute():
        gate.wait(5.0)
        raise RuntimeError("boom")

    def follower():
        try:
            flight.do("k", compute)
        except RuntimeError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=follower) for _ in range(2)]
    threads[0].start()
    while flight.inflight() == 0:
        time.sleep(0.001)
    threads[1].start()
    gate.set()
    for t in threads:
        t.join(10.0)
    assert errors == ["boom", "boom"]
    # A later call starts a fresh flight (and fails on its own terms).
    with pytest.raises(RuntimeError):
        flight.do("k", compute)


def test_singleflight_sequential_calls_each_lead(instr):
    flight = SingleFlight()
    value, led = flight.do("k", lambda: 1)
    assert (value, led) == (1, True)
    value, led = flight.do("k", lambda: 2)
    assert (value, led) == (2, True)


# -- service pipeline ----------------------------------------------------


def test_handle_validates_requests(service):
    with pytest.raises(ValidationError):
        service.handle({})  # neither matrix nor mtx
    with pytest.raises(ValidationError):
        service.handle({"matrix": "test-comm", "mtx": "both"})
    with pytest.raises(ValidationError):
        service.handle({"matrix": "test-comm", "technique": "nope"})
    with pytest.raises(ValidationError):
        service.handle({"matrix": "test-comm", "kernel": "spmm-csr-0"})
    with pytest.raises(ValidationError):
        service.handle({"matrix": "test-comm", "policy": "mru"})
    with pytest.raises(ValidationError):
        service.handle({"matrix": "test-comm", "iterations": 0})
    with pytest.raises(ValidationError):
        service.handle({"matrix": "test-comm", "deadline_seconds": -1})
    with pytest.raises(CorpusError):
        service.handle({"matrix": "no-such-matrix"})


def test_miss_then_hit_byte_identical(service):
    request = {"matrix": "test-comm", "technique": "degsort"}
    first = service.handle(request)
    second = service.handle(request)
    assert first.store == "miss"
    assert second.store == "hit"
    assert render_body(first.payload) == render_body(second.payload)
    perm = first.payload["permutation"]
    n = first.payload["matrix"]["n_nodes"]
    assert sorted(perm) == list(range(n))


def test_upload_shares_store_entry_with_corpus_matrix(service, tmp_path):
    # Same structure => same content address: an .mtx upload of a corpus
    # matrix must *hit* the entry the named request created.
    named = service.handle({"matrix": "test-comm", "technique": "degsort"})
    path = tmp_path / "m.mtx"
    write_matrix_market(load_matrix("test-comm"), str(path))
    uploaded = service.handle(
        {"mtx": path.read_text(), "technique": "degsort"}
    )
    assert uploaded.store == "hit"
    assert uploaded.payload["matrix"]["digest"] == named.payload["matrix"]["digest"]
    assert uploaded.payload["permutation"] == named.payload["permutation"]


def test_auto_recommendation_is_predicted_and_amortization_framed(service, instr):
    result = service.handle(
        {"matrix": "test-comm", "technique": "auto", "iterations": 7}
    )
    rec = result.payload["recommendation"]
    assert rec["predicted"] is True
    assert rec["iterations"] == 7
    assert rec["baseline"]["technique"] == "original"
    assert [c["technique"] for c in rec["candidates"]] == list(
        service.config.candidates
    )
    for row in rec["candidates"]:
        expected = row["reorder_seconds"] + 7 * row["modeled_seconds"]
        assert row["total_seconds"] == pytest.approx(expected)
        assert row["speedup"] == pytest.approx(
            rec["baseline"]["modeled_seconds"] / row["modeled_seconds"]
        )
    # The chosen technique is the response's technique.
    assert result.payload["technique"] == rec["chosen"]
    if not rec["reorder_worth_it"]:
        assert rec["chosen"] == "original"
    else:
        best = min(c["total_seconds"] for c in rec["candidates"])
        chosen_row = next(
            c for c in rec["candidates"] if c["technique"] == rec["chosen"]
        )
        assert chosen_row["total_seconds"] <= best * 1.01
        assert best < rec["baseline"]["total_seconds"]
    # The prediction itself ran zero candidate reorderings: only the
    # chosen technique was evaluated after the choice.
    assert instr.counters.get("serve.compute.eval") <= 1
    assert instr.counters.get("serve.compute.permutation") <= 1


def test_handle_recommend_computes_nothing(service, instr):
    result = service.handle_recommend(
        {"matrix": "test-comm", "iterations": 50}
    )
    assert result.store == "predicted"
    body = result.payload
    assert body["v"] == 1
    assert body["technique"] == body["recommendation"]["chosen"]
    assert body["matrix"]["name"] == "test-comm"
    assert {c["technique"] for c in body["recommendation"]["candidates"]} == set(
        service.config.candidates
    )
    # The acceptance criterion: zero permutations, zero evaluations.
    assert instr.counters.get("serve.compute.eval") == 0
    assert instr.counters.get("serve.compute.permutation") == 0
    # A second call reuses the cached features and predictor.
    again = service.handle_recommend({"matrix": "test-comm", "iterations": 50})
    assert render_body(again.payload) == render_body(body)


def test_handle_recommend_validates(service):
    with pytest.raises(ValidationError):
        service.handle_recommend({})  # neither matrix nor mtx
    with pytest.raises(ValidationError, match="'policy'"):
        service.handle_recommend({"matrix": "test-comm", "policy": "lru"})
    with pytest.raises(ValidationError):
        service.handle_recommend({"matrix": "test-comm", "iterations": 0})
    with pytest.raises(CorpusError):
        service.handle_recommend({"matrix": "no-such"})


def test_unknown_request_key_names_the_key(service):
    with pytest.raises(ValidationError, match="'kernle'"):
        service.handle({"matrix": "test-comm", "kernle": "spmv-csr"})
    with pytest.raises(ValidationError, match="allowed keys"):
        service.handle({"matrix": "test-comm", "extra": 1})


def test_reorder_body_carries_wire_version(service):
    result = service.handle({"matrix": "test-comm", "technique": "degsort"})
    assert result.payload["v"] == 1
    assert result.payload["schema"] == 1


def test_compute_counters_tick_once_per_entry(service, instr):
    service.handle({"matrix": "test-comm", "technique": "degsort"})
    service.handle({"matrix": "test-comm", "technique": "degsort"})
    assert instr.counters.get("serve.compute.permutation") == 1
    assert instr.counters.get("serve.compute.eval") == 1
    assert instr.counters.get("serve.store.eval.hit") == 1


# -- HTTP over a real socket ---------------------------------------------


@pytest.fixture
def endpoint(service):
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10.0)


def _post(base_url, payload, timeout=60.0):
    data = json.dumps(payload).encode() if isinstance(payload, dict) else payload
    request = urllib.request.Request(
        base_url + "/v1/reorder",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), exc.read()


def test_health_and_stats_endpoints(endpoint):
    with urllib.request.urlopen(endpoint + "/health", timeout=10) as response:
        assert json.loads(response.read()) == {"ok": True}
    _post(endpoint, {"matrix": "test-comm", "technique": "degsort"})
    with urllib.request.urlopen(endpoint + "/stats", timeout=10) as response:
        stats = json.loads(response.read())
    assert stats["service"]["store"]["perm"]["entries"] == 1
    assert stats["counters"]["serve.request.miss"] == 1
    assert stats["histograms"]["serve.request.miss"]["count"] == 1


def test_http_miss_then_hit_byte_identical(endpoint):
    request = {"matrix": "test-comm", "technique": "rcm"}
    status1, headers1, body1 = _post(endpoint, request)
    status2, headers2, body2 = _post(endpoint, request)
    assert (status1, status2) == (200, 200)
    assert headers1["X-Repro-Store"] == "miss"
    assert headers2["X-Repro-Store"] == "hit"
    assert body1 == body2  # bytes, not just JSON-equal
    assert float(headers2["X-Repro-Seconds"]) >= 0.0


def test_http_error_mapping(endpoint):
    status, _, body = _post(endpoint, b"{not json")
    assert status == 400
    assert "JSON" in json.loads(body)["error"]
    status, _, _ = _post(endpoint, {"matrix": "test-comm", "technique": "nope"})
    assert status == 400
    status, _, body = _post(endpoint, {"matrix": "no-such"})
    assert status == 404
    assert "no-such" in json.loads(body)["error"]
    request = urllib.request.Request(endpoint + "/nope", data=b"{}")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            status = response.status
    except urllib.error.HTTPError as exc:
        status = exc.code
    assert status == 404


def test_http_upload_with_negative_size_is_rejected(endpoint):
    mtx = "%%MatrixMarket matrix coordinate real general\n3 3 -1\n1 1 1.0\n"
    status, _, body = _post(endpoint, {"mtx": mtx, "technique": "degsort"})
    assert status == 400
    assert json.loads(body)["error"] == "<stream>:2: negative size in size line '3 3 -1'"


def test_http_recommend_get_and_post(endpoint, instr):
    url = endpoint + "/v1/recommend?matrix=test-comm&iterations=25"
    with urllib.request.urlopen(url, timeout=60) as response:
        assert response.status == 200
        assert response.headers["X-Repro-Store"] == "predicted"
        via_get = json.loads(response.read())
    assert via_get["v"] == 1
    assert via_get["iterations"] == 25
    assert via_get["recommendation"]["predicted"] is True

    data = json.dumps({"matrix": "test-comm", "iterations": 25}).encode()
    request = urllib.request.Request(
        endpoint + "/v1/recommend",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        via_post = json.loads(response.read())
    assert via_post == via_get
    # Predicted end to end: no permutation or evaluation was computed.
    assert instr.counters.get("serve.compute.eval") == 0
    assert instr.counters.get("serve.compute.permutation") == 0


def test_http_recommend_rejects_unknown_key(endpoint):
    data = json.dumps({"matrix": "test-comm", "policy": "lru"}).encode()
    request = urllib.request.Request(
        endpoint + "/v1/recommend",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            status, body = response.status, response.read()
    except urllib.error.HTTPError as exc:
        status, body = exc.code, exc.read()
    assert status == 400
    assert "'policy'" in json.loads(body)["error"]


def test_http_coalesces_to_one_solver_invocation(endpoint, instr, faults):
    # Stall the (single) computation so concurrent identical requests
    # pile up behind the leader's flight instead of racing it.
    _install_fault("serve.compute", action="delay", seconds=0.5, times=1)
    results = []
    barrier = threading.Barrier(4)

    def client():
        barrier.wait(5.0)
        results.append(
            _post(endpoint, {"matrix": "test-comm", "technique": "hubsort"})
        )

    threads = [threading.Thread(target=client) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    assert [status for status, _, _ in results] == [200] * 4
    # The coalescing proof: four concurrent requests, exactly one
    # reordering and one evaluation actually computed.
    assert instr.counters.get("serve.compute.permutation") == 1
    assert instr.counters.get("serve.compute.eval") == 1
    assert instr.counters.get("serve.coalesce.wait") >= 1
    bodies = {body for _, _, body in results}
    assert len(bodies) == 1  # every caller saw identical bytes


def test_http_deadline_returns_504_and_server_survives(endpoint, instr, faults):
    _install_fault("serve.compute", action="delay", seconds=0.6, times=1)
    status, _, body = _post(
        endpoint,
        {"matrix": "test-comm", "technique": "rcm", "deadline_seconds": 0.15},
    )
    assert status == 504
    assert "timeout" in json.loads(body)["error"]
    # Handler threads are not the main thread: enforcement must have
    # degraded to the cooperative path, observably.
    assert instr.counters.get("resilience.deadline_degraded") >= 1
    # The server is still alive and the entry is computable afterwards.
    status, headers, _ = _post(
        endpoint, {"matrix": "test-comm", "technique": "rcm"}
    )
    assert status == 200
    assert headers["X-Repro-Store"] in ("miss", "hit")


# -- bench helpers -------------------------------------------------------


def test_zipf_trace_is_deterministic_and_skewed():
    names = [f"m{i}" for i in range(6)]
    trace = zipf_trace(names, 400, skew=1.2, seed=7)
    assert trace == zipf_trace(names, 400, skew=1.2, seed=7)
    assert len(trace) == 400
    counts = {name: trace.count(name) for name in names}
    assert counts["m0"] > counts["m5"]  # rank 1 beats the tail
    with pytest.raises(ValidationError):
        zipf_trace([], 10)
    with pytest.raises(ValidationError):
        zipf_trace(names, 0)


def test_bench_payload_math():
    from repro.serve.bench import _LoadState
    from repro.serve.client import ClientResponse

    def _response(status, store=None, error=None):
        headers = {"X-Repro-Store": store} if store else {}
        return ClientResponse(status=status, body=None, headers=headers, error=error)

    state = _LoadState(["a"] * 9)
    for seconds in (0.001, 0.001, 0.002):
        state.record(seconds, _response(200, "hit"))
    for seconds in (0.05, 0.06):
        state.record(seconds, _response(200, "miss"))
    state.record(0.0, _response(504))
    state.record(0.0, _response(429))
    state.record(0.0, _response(-1, error="<urlopen error timed out>"))
    state.record(0.0, _response(-1, error="connection refused"))
    payload = bench_payload(state, server_stats=None, config={"x": 1})
    assert payload["requests"]["total"] == 5
    assert payload["requests"]["attempted"] == 9
    assert payload["requests"]["shed"] == 1
    assert payload["requests"]["errors"] == {
        "504": 1,
        "timeout": 1,
        "connection": 1,
    }
    assert payload["store_hit_rate"] == pytest.approx(3 / 5)
    assert payload["hit_speedup_p50"] > 10
    assert payload["client"]["hit"]["count"] == 3
    assert payload["client"]["miss"]["p50"] is not None
    assert state.accepted.count == 5


def test_wait_for_server_fails_fast_on_http_error():
    class _Unhealthy(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            body = b'{"error": "store exploded"}'
            self.send_response(503)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), _Unhealthy)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    started = time.monotonic()
    try:
        # HTTPError subclasses OSError; a naive except chain would poll
        # the unhealthy server for the full 30s instead of failing now.
        with pytest.raises(RuntimeError, match="503.*store exploded"):
            wait_for_server(f"http://{host}:{port}", timeout=30.0)
        assert time.monotonic() - started < 5.0
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10.0)


def test_wait_for_server_times_out_when_nothing_listens():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(TimeoutError):
        wait_for_server(f"http://127.0.0.1:{port}", timeout=0.3)


# -- admission control ----------------------------------------------------


def test_admission_sheds_immediately_when_queue_full(instr):
    gate = Admission(max_inflight=1, max_queue=0, queue_timeout=0.25)
    with gate.admit("first"):
        assert gate.inflight() == 1
        started = time.monotonic()
        with pytest.raises(OverloadedError) as err:
            with gate.admit("second"):
                pass
        assert time.monotonic() - started < 0.2  # no queue, no wait
        assert err.value.retry_after == pytest.approx(0.25)
    assert instr.counters.get("serve.shed.queue_full") == 1
    assert gate.inflight() == 0
    with gate.admit("after-release"):  # the slot came back
        assert gate.inflight() == 1


def test_admission_queue_wait_times_out(instr):
    gate = Admission(max_inflight=1, max_queue=2, queue_timeout=0.05)
    with gate.admit():
        with pytest.raises(OverloadedError, match="slot wait"):
            with gate.admit():
                pass
    assert instr.counters.get("serve.shed.queue_timeout") == 1
    assert gate.depth() == 0


def test_admission_queued_caller_gets_released_slot(instr):
    gate = Admission(max_inflight=1, max_queue=1, queue_timeout=5.0)
    holding = threading.Event()

    def holder():
        with gate.admit():
            holding.set()
            time.sleep(0.1)

    thread = threading.Thread(target=holder)
    thread.start()
    assert holding.wait(5.0)
    with gate.admit():  # queues behind the holder, then runs
        assert gate.inflight() == 1
    thread.join(5.0)
    assert instr.counters.get("serve.shed.queue_timeout") == 0
    assert instr.counters.get("serve.shed.queue_full") == 0


def test_admission_validates_parameters():
    with pytest.raises(ValidationError):
        Admission(max_inflight=0)
    with pytest.raises(ValidationError):
        Admission(max_queue=-1)
    with pytest.raises(ValidationError):
        Admission(queue_timeout=0.0)


# -- circuit breaker ------------------------------------------------------


def _manual_clock():
    state = {"now": 0.0}
    return state, lambda: state["now"]


def test_breaker_lifecycle_closed_open_halfopen_closed(instr):
    clock_state, clock = _manual_clock()
    breaker = CircuitBreaker(
        "compute", window=4, min_failures=2, failure_rate=0.5,
        recovery_seconds=5.0, probe_budget=1, probe_successes=2, clock=clock,
    )
    assert breaker.acquire()
    breaker.success()
    assert breaker.acquire()
    breaker.failure()
    assert breaker.state == "closed"  # one failure is below min_failures
    assert breaker.acquire()
    breaker.failure()  # 2 failures / 3 outcomes -> open
    assert breaker.state == "open"
    assert instr.counters.get("serve.breaker.compute.opened") == 1
    assert not breaker.acquire()
    assert instr.counters.get("serve.breaker.compute.reject") == 1
    assert 0.0 < breaker.retry_after() <= 5.0

    clock_state["now"] = 5.0
    assert breaker.state == "half-open"
    assert instr.counters.get("serve.breaker.compute.half_open") == 1
    assert breaker.acquire()
    assert not breaker.acquire()  # probe budget of 1 is spent
    breaker.success()
    assert breaker.state == "half-open"  # needs probe_successes=2
    assert breaker.acquire()
    breaker.success()
    assert breaker.state == "closed"
    assert instr.counters.get("serve.breaker.compute.closed") == 1
    assert breaker.snapshot() == {
        "state": "closed",
        "window_failures": 0,
        "window_size": 0,
        "probes_inflight": 0,
    }


def test_breaker_halfopen_failure_reopens_and_cancel_is_neutral(instr):
    clock_state, clock = _manual_clock()
    breaker = CircuitBreaker(
        "store", window=4, min_failures=2, failure_rate=0.5,
        recovery_seconds=1.0, probe_budget=1, probe_successes=1, clock=clock,
    )
    breaker.failure()
    breaker.failure()
    assert breaker.state == "open"
    clock_state["now"] = 1.0
    assert breaker.state == "half-open"
    # cancel() returns the probe slot without recording an outcome.
    assert breaker.acquire()
    breaker.cancel()
    assert breaker.snapshot()["probes_inflight"] == 0
    assert breaker.state == "half-open"
    # A failed probe re-opens and restarts the recovery clock.
    assert breaker.acquire()
    breaker.failure()
    assert breaker.state == "open"
    assert instr.counters.get("serve.breaker.store.opened") == 2
    assert breaker.retry_after() == pytest.approx(1.0)


def test_breaker_needs_both_count_and_rate(instr):
    breaker = CircuitBreaker(
        "compute", window=8, min_failures=2, failure_rate=0.9
    )
    for _ in range(5):
        breaker.success()
    breaker.failure()
    breaker.failure()
    # 2 failures meets min_failures but 2/7 is far below the 0.9 rate.
    assert breaker.state == "closed"


def test_breaker_validates_parameters():
    for kwargs in (
        {"window": 0},
        {"min_failures": 0},
        {"failure_rate": 0.0},
        {"failure_rate": 1.5},
        {"recovery_seconds": 0.0},
        {"probe_budget": 0},
        {"probe_successes": 0},
    ):
        with pytest.raises(ValidationError):
            CircuitBreaker("x", **kwargs)


# -- resilient client -----------------------------------------------------


class _TopRng:
    """rng whose uniform() always returns the upper bound — makes the
    backoff ceiling directly observable."""

    def uniform(self, low, high):
        return high


def test_idempotency_key_is_canonical():
    key = idempotency_key({"b": 1, "a": 2})
    assert key == idempotency_key({"a": 2, "b": 1})
    assert len(key) == 64
    assert idempotency_key({"a": 2, "b": 2}) != key


def test_client_backoff_schedule_caps_and_honors_retry_after():
    client = ServeClient(
        "http://unused", backoff_base=0.1, backoff_cap=1.0, rng=_TopRng()
    )
    assert client._backoff(0, None) == pytest.approx(0.1)
    assert client._backoff(1, None) == pytest.approx(0.2)
    assert client._backoff(2, None) == pytest.approx(0.4)
    assert client._backoff(5, None) == pytest.approx(1.0)  # capped
    # Retry-After raises the ceiling to the server's ask...
    assert client._backoff(0, "0.5") == pytest.approx(0.5)
    # ...but never above the cap, and garbage hints are ignored.
    assert client._backoff(0, "30") == pytest.approx(1.0)
    assert client._backoff(0, "soon") == pytest.approx(0.1)
    assert client._backoff(0, "-2") == pytest.approx(0.1)


def test_client_retries_shed_and_transient_but_not_500():
    sleeps = []
    client = ServeClient(
        "http://unused", max_retries=3, backoff_base=0.01,
        backoff_cap=0.02, rng=_TopRng(), sleep=sleeps.append,
    )
    seen_headers = []
    outcomes = [
        ClientResponse(429, None, headers={"Retry-After": "0.015"}),
        ClientResponse(503, None),
        ClientResponse(200, {"ok": True}),
    ]

    def fake_attempt(path, body, headers):
        seen_headers.append(dict(headers))
        return outcomes.pop(0)

    client._attempt = fake_attempt
    response = client.post_json("/v1/reorder", {"matrix": "m"})
    assert response.ok
    assert (response.attempts, response.retries) == (3, 2)
    assert sleeps == [pytest.approx(0.015), pytest.approx(0.02)]
    assert response.retry_wait_seconds == pytest.approx(sum(sleeps))
    # Every attempt carried the same content-digest idempotency key.
    keys = {h["X-Repro-Idempotency-Key"] for h in seen_headers}
    assert keys == {idempotency_key({"matrix": "m"})}

    client._attempt = lambda *a: ClientResponse(500, None)
    response = client.post_json("/v1/reorder", {"matrix": "m"})
    assert (response.status, response.attempts) == (500, 1)  # no retry

    client._attempt = lambda *a: ClientResponse(-1, None, error="refused")
    response = client.post_json("/v1/reorder", {"matrix": "m"})
    assert (response.status, response.attempts) == (-1, 4)  # exhausted
    assert not response.ok


def test_client_validates_parameters():
    with pytest.raises(ValidationError):
        ServeClient("http://x", max_retries=-1)
    with pytest.raises(ValidationError):
        ServeClient("http://x", backoff_base=0.0)


# -- circuit breaking in the service pipeline -----------------------------


@pytest.fixture
def fragile_service(tmp_path, instr):
    """A service whose breakers trip after two failures and recover fast.

    The window is shrunk to 4 so a burst of failures reaches the rate
    threshold even when earlier healthy traffic sits in the window.
    """
    return ReorderService(
        ServeConfig(
            profile="test",
            store_dir=str(tmp_path / "store"),
            breaker_window=4,
            breaker_min_failures=2,
            breaker_recovery_seconds=0.2,
        )
    )


def _until(predicate, timeout=5.0, message="condition never became true"):
    stop = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < stop, message
        time.sleep(0.005)


def test_compute_breaker_opens_degrades_auto_and_recovers(
    fragile_service, instr, faults
):
    service = fragile_service
    _install_fault("serve.compute", action="raise", exception="runtime", times=2)
    for technique in ("degsort", "rcm"):
        with pytest.raises(RuntimeError, match="injected"):
            service.handle({"matrix": "test-comm", "technique": technique})
    assert instr.counters.get("serve.breaker.compute.opened") == 1
    assert service.breakers["compute"].state == "open"

    # An explicit technique cannot degrade: breaker-open surfaces (503).
    with pytest.raises(BreakerOpenError, match="compute breaker open"):
        service.handle({"matrix": "test-comm", "technique": "degsort"})

    # "auto" already holds a full predictor answer — serve it, marked.
    result = service.handle({"matrix": "test-comm", "technique": "auto"})
    assert (result.status, result.store) == (202, "degraded")
    assert result.payload["degraded"] is True
    assert result.payload["requested_technique"] == "auto"
    assert result.payload["model"]["predicted"] is True
    assert result.payload["model"]["modeled_seconds"] is not None
    assert result.payload["perm_key"] is None
    assert result.payload["permutation"] is None
    assert result.retry_after is not None and result.retry_after > 0
    assert instr.counters.get("serve.request.degrade") == 1
    # The degraded answer consumed no compute and queued nothing.
    assert instr.counters.get("serve.compute.eval") == 2  # the two failures

    # Recovery: after recovery_seconds the breaker admits probes; two
    # successes (probe_successes default) close it again.
    time.sleep(0.25)
    for technique in ("degsort", "rcm"):
        healthy = service.handle({"matrix": "test-comm", "technique": technique})
        assert healthy.status == 200
        assert healthy.payload["degraded"] is False
    assert instr.counters.get("serve.breaker.compute.half_open") == 1
    assert instr.counters.get("serve.breaker.compute.closed") == 1
    assert service.breakers["compute"].state == "closed"


def test_store_breaker_degrades_to_recompute(fragile_service, instr, faults):
    service = fragile_service
    request = {"matrix": "test-comm", "technique": "degsort"}
    assert service.handle(request).store == "miss"
    assert service.handle(request).store == "hit"

    # Two failing reads (outer lookup + in-flight re-check) trip the
    # store breaker; the request must still succeed by recomputing.
    _install_fault("serve.store.get", action="raise", exception="oserror", times=2)
    result = service.handle(request)
    assert (result.status, result.store) == (200, "miss")
    assert instr.counters.get("serve.breaker.store.opened") == 1
    assert instr.counters.get("serve.store.bypass") >= 2  # perm get + puts
    assert instr.counters.get("serve.compute.eval") == 2

    # Recovery: probes hit the (healthy, still-populated) store again.
    time.sleep(0.25)
    assert service.handle(request).store == "hit"
    assert service.handle(request).store == "hit"
    assert instr.counters.get("serve.breaker.store.closed") == 1
    assert service.breakers["store"].state == "closed"


def test_client_errors_inside_compute_do_not_trip_breaker(
    fragile_service, instr
):
    # spmm-csr-K parses fine but trace building rejects widths whose
    # gather is not a whole number of cache lines — a *client* error
    # surfacing inside the admitted compute.  A burst of those must not
    # open the compute breaker and 503 well-formed requests.
    service = fragile_service
    for width in (25, 26, 27):
        with pytest.raises(ValidationError, match="line size"):
            service.handle(
                {
                    "matrix": "test-comm",
                    "technique": "degsort",
                    "kernel": f"spmm-csr-{width}",
                }
            )
    assert service.breakers["compute"].state == "closed"
    assert instr.counters.get("serve.breaker.compute.opened") == 0
    healthy = service.handle({"matrix": "test-comm", "technique": "degsort"})
    assert (healthy.status, healthy.store) == (200, "miss")


def test_corrupt_put_quarantines_on_next_read(service, instr, faults):
    _install_fault(
        "serve.store.put", action="corrupt", mode="flip", match="eval:", times=1
    )
    request = {"matrix": "test-comm", "technique": "degsort"}
    assert service.handle(request).store == "miss"
    # The entry was damaged after the atomic write: the next read must
    # quarantine it and recompute — never crash, never serve garbage.
    assert service.handle(request).store == "miss"
    assert instr.counters.get("serve.compute.eval") == 2
    assert instr.counters.get("serve.compute.permutation") == 1  # perm survived
    assert service.store.stats()["quarantine"]["entries"] == 1
    # The recompute re-persisted a good entry.
    assert service.handle(request).store == "hit"


def test_stats_report_admission_breakers_and_errors(service):
    stats = service.stats()
    assert stats["admission"]["max_inflight"] == 4
    assert stats["admission"]["inflight"] == 0
    assert stats["admission"]["queued"] == 0
    assert set(stats["breakers"]) == {"compute", "store"}
    assert stats["breakers"]["compute"]["state"] == "closed"
    assert stats["errors_recorded"] == 0
    service.record_error("abc123", "/v1/reorder", "boom", "trace")
    assert service.stats()["errors_recorded"] == 1
    assert service.recent_errors()[0]["error_id"] == "abc123"


# -- store scan (doctor --store) ------------------------------------------


def test_store_scan_classifies_and_quarantines(tmp_path, instr):
    store = PermutationStore(str(tmp_path / "store"))
    store.put("perm", perm_key("d", "rcm"), {"permutation": [0]})
    victim = store.put(
        "eval", eval_key("d", "rcm", "spmv-csr", "lru", "p"), {"x": 1}
    )
    with open(victim, "r+b") as handle:
        handle.truncate(10)
    legacy_path = store.path("perm", perm_key("d2", "rcm"))
    os.makedirs(os.path.dirname(legacy_path), exist_ok=True)
    with open(legacy_path, "w", encoding="utf-8") as handle:
        json.dump({"permutation": [0]}, handle)  # pre-envelope format

    scan = store.scan()
    assert len(scan.ok) == 1 and scan.ok[0].startswith("perm/")
    assert len(scan.damaged) == 1 and scan.damaged[0][0].startswith("eval/")
    assert len(scan.legacy) == 1
    assert not scan.healthy
    assert os.path.exists(victim)  # read-only scan moved nothing

    store.scan(quarantine=True)
    assert not os.path.exists(victim)
    assert not os.path.exists(legacy_path)
    rescanned = store.scan()
    assert rescanned.healthy
    assert len(rescanned.ok) == 1
    assert len(rescanned.quarantined) == 2


# -- overload + chaos over a real socket ----------------------------------


def _make_endpoint(service):
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, f"http://{host}:{port}"


def test_http_sheds_429_with_retry_after(tmp_path, instr, faults):
    service = ReorderService(
        ServeConfig(
            profile="test",
            store_dir=str(tmp_path / "store"),
            max_inflight=1,
            max_queue=0,
            queue_timeout=0.2,
        )
    )
    server, thread, base = _make_endpoint(service)
    try:
        _install_fault(
            "serve.compute", action="delay", seconds=1.0, match="degsort", times=1
        )
        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                _post(base, {"matrix": "test-comm", "technique": "degsort"})
            )
        )
        worker.start()
        # Wait until the leader holds the only compute slot (the counter
        # ticks inside the admitted section, before the delay fault).
        _until(lambda: instr.counters.get("serve.compute.eval") >= 1)
        status, headers, body = _post(
            base, {"matrix": "test-comm", "technique": "rcm"}, timeout=10
        )
        assert status == 429
        assert headers["Retry-After"] == "1"  # ceil(queue_timeout)
        assert "queue full" in json.loads(body)["error"]
        assert instr.counters.get("serve.shed.queue_full") == 1
        worker.join(30.0)
        assert results and results[0][0] == 200  # admitted work completed
        # A shed 429 is not a 500: nothing was recorded as an error.
        assert service.recent_errors() == []
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10.0)


def test_http_degraded_202_and_breaker_503_carry_retry_after(
    tmp_path, instr, faults
):
    service = ReorderService(
        ServeConfig(
            profile="test",
            store_dir=str(tmp_path / "store"),
            breaker_min_failures=2,
            breaker_recovery_seconds=60.0,
        )
    )
    server, thread, base = _make_endpoint(service)
    try:
        _install_fault("serve.compute", action="raise", exception="runtime", times=2)
        for technique in ("degsort", "rcm"):
            status, _, body = _post(
                base, {"matrix": "test-comm", "technique": technique}
            )
            assert status == 500
            assert json.loads(body)["error_id"]
        assert instr.counters.get("serve.breaker.compute.opened") == 1

        # Default technique is "auto": degraded 202, not an error.
        status, headers, body = _post(base, {"matrix": "test-comm"})
        assert status == 202
        parsed = json.loads(body)
        assert parsed["degraded"] is True
        assert parsed["recommendation"]["predicted"] is True
        assert headers["X-Repro-Store"] == "degraded"
        assert int(headers["Retry-After"]) >= 1

        # An explicit technique surfaces the open breaker as 503.
        status, headers, body = _post(
            base, {"matrix": "test-comm", "technique": "degsort"}
        )
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        assert "breaker open" in json.loads(body)["error"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10.0)


def test_leader_failure_propagates_to_followers(endpoint, service, instr, faults):
    # The leader stalls (so followers can join its flight), then fails.
    _install_faults([
        {"site": "serve.compute", "action": "delay", "seconds": 0.5, "times": 1},
        {"site": "serve.compute", "action": "raise", "exception": "runtime",
         "times": 1},
    ])
    results = []
    barrier = threading.Barrier(3)

    def client():
        barrier.wait(5.0)
        results.append(
            _post(endpoint, {"matrix": "test-comm", "technique": "hubsort"})
        )

    threads = [threading.Thread(target=client) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    assert not any(t.is_alive() for t in threads)  # no stuck waiters
    # Exactly one computation ran; its failure reached every caller.
    assert instr.counters.get("serve.compute.eval") == 1
    assert instr.counters.get("serve.coalesce.wait") >= 1
    assert [status for status, _, _ in results] == [500, 500, 500]
    for _, _, body in results:
        assert json.loads(body)["error_id"]
    # The failed flight persisted nothing.
    stats = service.store.stats()
    assert stats["eval"]["entries"] == 0
    assert stats["perm"]["entries"] == 0
    # The flight table is clean: the same key computes fine afterwards.
    status, headers, _ = _post(
        endpoint, {"matrix": "test-comm", "technique": "hubsort"}
    )
    assert (status, headers["X-Repro-Store"]) == (200, "miss")
    assert instr.counters.get("serve.compute.eval") == 2


def test_render_fault_maps_to_500_with_error_id(endpoint, service, instr, faults):
    _install_fault("serve.render", action="raise", exception="runtime", times=1)
    status, _, body = _post(endpoint, {"matrix": "test-comm", "technique": "degsort"})
    assert status == 500
    error_id = json.loads(body)["error_id"]
    assert error_id
    recorded = service.recent_errors()
    assert [entry["error_id"] for entry in recorded] == [error_id]
    assert recorded[0]["path"] == "/v1/reorder"
    assert "RuntimeError" in recorded[0]["error"]
    assert "Traceback" in recorded[0]["traceback"]
    assert instr.counters.get("serve.request.error.500") == 1
    # The response was lost after the work landed: next call is a hit.
    status, headers, _ = _post(endpoint, {"matrix": "test-comm", "technique": "degsort"})
    assert (status, headers["X-Repro-Store"]) == (200, "hit")


def test_drain_finishes_inflight_and_refuses_new_work(service, instr, faults):
    server, thread, base = _make_endpoint(service)
    try:
        with urllib.request.urlopen(base + "/ready", timeout=10) as response:
            assert json.loads(response.read()) == {
                "ready": True, "draining": False,
            }
        _install_fault("serve.compute", action="delay", seconds=1.0, times=1)
        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                _post(base, {"matrix": "test-comm", "technique": "degsort"})
            )
        )
        worker.start()
        _until(lambda: server.active_requests() >= 1)

        drain_outcome = []
        drainer = threading.Thread(
            target=lambda: drain_outcome.append(server.drain(15.0))
        )
        drainer.start()
        _until(lambda: server.draining)

        # While draining: readiness flips, new service work is refused...
        try:
            urllib.request.urlopen(base + "/ready", timeout=10)
            ready_status = 200
        except urllib.error.HTTPError as exc:
            ready_status = exc.code
            assert json.loads(exc.read())["draining"] is True
        assert ready_status == 503
        status, headers, body = _post(
            base, {"matrix": "test-comm", "technique": "rcm"}, timeout=10
        )
        assert status == 503
        assert headers.get("Retry-After") == "1"
        assert "draining" in json.loads(body)["error"]
        # ...but liveness stays green: the process is alive, finishing.
        with urllib.request.urlopen(base + "/health", timeout=10) as response:
            assert json.loads(response.read()) == {"ok": True}

        worker.join(30.0)
        drainer.join(30.0)
        assert results and results[0][0] == 200  # in-flight ran to completion
        assert drain_outcome == [True]
        assert instr.counters.get("serve.drain.started") == 1
        assert instr.counters.get("serve.drain.clean") == 1
        assert instr.counters.get("serve.drain.timeout") == 0
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10.0)
