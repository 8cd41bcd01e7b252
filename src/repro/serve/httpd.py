"""Stdlib HTTP/JSON front end for :class:`~repro.serve.service.ReorderService`.

A :class:`~http.server.ThreadingHTTPServer` (one daemon thread per
connection, no new dependencies) exposing:

* ``POST /v1/reorder`` — the request schema documented in
  :mod:`repro.serve.service`; responds with the deterministic JSON body
  plus transport headers:

  - ``X-Repro-Store``: ``hit`` | ``miss`` | ``coalesced``,
  - ``X-Repro-Seconds``: server-side wall time for this request.

  The *body* of a store hit is byte-identical to the body of the miss
  that created the entry — everything nondeterministic travels in
  headers (:func:`render_body` keeps the rendering canonical).

* ``POST /v1/recommend`` (and ``GET /v1/recommend?matrix=...``) — the
  predictor-backed "is reordering worth it?" endpoint
  (:meth:`~repro.serve.service.ReorderService.handle_recommend`).
  Accepts the ``matrix``/``mtx``/``kernel``/``iterations``/
  ``deadline_seconds`` subset of the reorder schema (GET takes
  ``matrix``, ``kernel`` and ``iterations`` as query parameters) and
  answers without computing a single candidate reordering;
  ``X-Repro-Store`` is always ``predicted``.

* ``GET /health`` — liveness probe (200 even while draining).
* ``GET /ready`` — readiness probe: 503 once a SIGTERM drain starts,
  so load balancers stop routing before the process exits.
* ``GET /stats`` — store/coalescing/admission/breaker stats plus the
  live counter and histogram snapshot (``serve.request.hit`` /
  ``serve.request.miss`` latency histograms back the bench harness's
  server-side view).

Error mapping (all JSON, none of them kill the server):
``400`` malformed request / validation failure, ``404`` unknown corpus
matrix or path, ``413`` oversized body, ``429`` shed by admission
control (:class:`~repro.errors.OverloadedError`, with ``Retry-After``),
``503`` circuit breaker open / draining (also with ``Retry-After``),
``504`` per-request deadline exceeded
(:class:`~repro.errors.CellTimeoutError`), ``500`` anything else — a
500 body carries an ``"error_id"`` that is echoed into the run-ledger
record so operators can correlate it with the server-side traceback.
``202`` is success in degraded mode: an ``"auto"`` request answered
from the predictor alone (``"degraded": true``) while the compute
breaker is open.
"""

from __future__ import annotations

import json
import math
import threading
import time
import traceback
import uuid
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    BreakerOpenError,
    CellTimeoutError,
    CorpusError,
    OverloadedError,
    ValidationError,
)
from repro.obs import get_obs, logger
from repro.resilience.faults import fault_point
from repro.serve.service import ReorderService
from repro.store import PermutationText


def _retry_after(seconds: float) -> str:
    """``Retry-After`` header value: integer seconds, floored at 1."""
    return str(max(1, math.ceil(seconds)))


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def render_body(payload: Dict[str, object]) -> bytes:
    """Canonical JSON rendering — the byte-identity contract.

    Sorted keys and fixed separators mean two renderings of equal
    payloads are equal as *bytes*, which is what the store-hit
    integration test asserts against the original miss response.  A
    top-level :class:`~repro.store.PermutationText` value is spliced in
    as its text at its sorted key, which gives the bytes of the decoded
    list without decoding it.
    """
    members: List[str] = []
    plain: Dict[str, object] = {}
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, PermutationText):
            if plain:
                members.append(_canonical(plain)[1:-1])
                plain = {}
            members.append(f"{_canonical(key)}:{value.text}")
        else:
            plain[key] = value
    if plain:
        members.append(_canonical(plain)[1:-1])
    return ("{" + ",".join(members) + "}").encode("utf-8")


class ReorderHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ReorderService`.

    Tracks in-flight requests so :meth:`drain` (SIGTERM) can refuse new
    work — ``/ready`` flips to 503, service endpoints answer 503 with
    ``Retry-After`` — while every already-admitted request (including
    coalesced followers parked on an in-flight leader) runs to
    completion before the listener shuts down.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: ReorderService) -> None:
        super().__init__(address, ServeHandler)
        self.service = service
        self.draining = False
        self._active = 0
        self._idle = threading.Condition()

    @contextmanager
    def track_request(self) -> Iterator[None]:
        """Count one service request as in-flight for drain purposes."""
        with self._idle:
            self._active += 1
        try:
            yield
        finally:
            with self._idle:
                self._active -= 1
                if self._active == 0:
                    self._idle.notify_all()

    def active_requests(self) -> int:
        with self._idle:
            return self._active

    def drain(self, deadline_seconds: float = 10.0) -> bool:
        """Stop admitting, wait out in-flight requests, shut down.

        Returns True when the server went idle within the deadline;
        either way the listener is shut down (``serve_forever``
        returns) so the process can exit.  Safe to call from a signal-
        handler-spawned thread — never from the ``serve_forever``
        thread itself (``shutdown`` would deadlock there).
        """
        self.draining = True
        get_obs().counter("serve.drain.started")
        with self._idle:
            clean = self._idle.wait_for(
                lambda: self._active == 0, timeout=deadline_seconds
            )
        get_obs().counter(
            "serve.drain.clean" if clean else "serve.drain.timeout"
        )
        self.shutdown()
        return clean


class ServeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    @property
    def service(self) -> ReorderService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        # Route access logs through the repro logger (silent unless the
        # operator opts into --log-level debug) instead of stderr.
        logger.debug("serve: %s - %s", self.address_string(), format % args)

    # -- GET --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/health":
            # Liveness: answers 200 even while draining — the process
            # is alive and finishing work, just not accepting more.
            self._send_json(200, {"ok": True})
            return
        if self.path == "/ready":
            # Readiness: flips to 503 the moment a drain starts so a
            # load balancer stops routing here before the exit.
            if self.server.draining:  # type: ignore[attr-defined]
                self._send_json(
                    503,
                    {"ready": False, "draining": True},
                    extra_headers={"Retry-After": "1"},
                )
                return
            self._send_json(200, {"ready": True, "draining": False})
            return
        if self.path == "/stats":
            obs = get_obs()
            snapshot = obs.counters.snapshot()
            histograms = {
                name: hist.summary()
                for name, hist in obs.counters.histograms().items()
            }
            self._send_json(
                200,
                {
                    "service": self.service.stats(),
                    "counters": snapshot["counters"],
                    "histograms": histograms,
                },
            )
            return
        parsed = urlsplit(self.path)
        if parsed.path == "/v1/recommend":
            request: Dict[str, object] = {
                key: values[-1] for key, values in parse_qs(parsed.query).items()
            }
            for key, cast in (("iterations", int), ("deadline_seconds", float)):
                if key in request:
                    try:
                        request[key] = cast(request[key])  # type: ignore[call-overload]
                    except (TypeError, ValueError):
                        self._send_error_json(
                            400, f"query parameter {key!r} must be a number"
                        )
                        return
            self._dispatch(self.service.handle_recommend, request)
            return
        self._send_json(404, {"error": f"unknown path {self.path!r}"})

    # -- POST -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        handlers: Dict[str, Callable] = {
            "/v1/reorder": self.service.handle,
            "/v1/recommend": self.service.handle_recommend,
        }
        handler = handlers.get(self.path)
        if handler is None:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        body = self._read_body()
        if body is None:
            return  # error response already sent
        try:
            request = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send_error_json(400, f"request body is not valid JSON: {exc}")
            return
        self._dispatch(handler, request)

    def _dispatch(self, handler: Callable, request: object) -> None:
        """Run one service call with the shared error mapping."""
        server: ReorderHTTPServer = self.server  # type: ignore[assignment]
        if server.draining:
            self._send_error_json(
                503, "server is draining", extra_headers={"Retry-After": "1"}
            )
            return
        started = time.monotonic()
        obs = get_obs()
        with server.track_request():
            try:
                with obs.span("serve-request"):
                    result = handler(request)
                # Chaos site: a fault here fails the request *after* the
                # service succeeded (lost-response path) — it must map
                # to a clean error, never kill the server.
                fault_point("serve.render", label=f"{self.path}|{result.store}")
            except ValidationError as exc:
                self._send_error_json(400, str(exc))
                return
            except CorpusError as exc:
                # CorpusError is a KeyError; str() of a KeyError quotes
                # the message, so unwrap the original argument.
                detail = exc.args[0] if exc.args else str(exc)
                self._send_error_json(404, str(detail))
                return
            except OverloadedError as exc:
                self._send_error_json(
                    429,
                    str(exc),
                    extra_headers={"Retry-After": _retry_after(exc.retry_after)},
                )
                return
            except BreakerOpenError as exc:
                self._send_error_json(
                    503,
                    str(exc),
                    extra_headers={"Retry-After": _retry_after(exc.retry_after)},
                )
                return
            except CellTimeoutError as exc:
                self._send_error_json(504, str(exc))
                return
            except Exception as exc:  # noqa: BLE001 - a request must not kill the server
                error_id = uuid.uuid4().hex[:12]
                message = f"{type(exc).__name__}: {exc}"
                logger.exception(
                    "serve: unhandled error %s for %s", error_id, self.path
                )
                self.service.record_error(
                    error_id,
                    self.path,
                    message,
                    "".join(
                        traceback.format_exception(
                            type(exc), exc, exc.__traceback__
                        )
                    ),
                )
                self._send_error_json(500, message, error_id=error_id)
                return
            elapsed = time.monotonic() - started
            obs.counter(f"serve.request.{result.store}")
            obs.observe(f"serve.request.{result.store}", elapsed)
            headers = {
                "X-Repro-Store": result.store,
                "X-Repro-Seconds": f"{elapsed:.6f}",
            }
            if result.retry_after is not None:
                headers["Retry-After"] = _retry_after(result.retry_after)
            self._send_json(result.status, result.payload, extra_headers=headers)

    # -- plumbing ---------------------------------------------------------

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_error_json(400, "malformed Content-Length header")
            return None
        if length <= 0:
            self._send_error_json(400, "POST requires a JSON body (Content-Length)")
            return None
        limit = self.service.config.max_upload_bytes + 64 * 1024
        if length > limit:
            self._send_error_json(413, f"request body exceeds {limit} bytes")
            return None
        return self.rfile.read(length)

    def _send_error_json(
        self,
        status: int,
        message: str,
        extra_headers: Optional[Dict[str, str]] = None,
        error_id: Optional[str] = None,
    ) -> None:
        get_obs().counter(f"serve.request.error.{status}")
        body: Dict[str, object] = {"error": message}
        if error_id is not None:
            body["error_id"] = error_id
        self._send_json(status, body, extra_headers=extra_headers)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = render_body(payload)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away; nothing to clean up


def make_server(
    service: ReorderService, host: str = "127.0.0.1", port: int = 0
) -> ReorderHTTPServer:
    """Bind (but do not start) a server; ``port=0`` picks a free port."""
    return ReorderHTTPServer((host, port), service)
