"""The serve-tier request pipeline (transport-agnostic core).

:class:`ReorderService` turns one JSON request — a corpus matrix name
or an uploaded ``.mtx`` body, plus a kernel spec — into the recommended
technique, the permutation, and the predicted traffic/runtime from the
existing simulator.  It is deliberately free of HTTP concerns so the
integration tests can drive it directly and the stdlib HTTP front end
(:mod:`repro.serve.httpd`) stays a thin adapter.

Request schema, wire version ``"v": 1`` (all fields optional unless
noted; unknown top-level keys are rejected with a 400 naming the
key)::

    {
      "matrix": "soc-forum",          # corpus name ... or:
      "mtx": "%%MatrixMarket ...",    # MatrixMarket text upload
      "technique": "auto",            # or any registry technique name
      "kernel": "spmv-csr",
      "policy": "lru",
      "iterations": 100,              # amortization horizon for "auto"
      "deadline_seconds": 2.0,        # per-request budget
      "include_permutation": true
    }

Technique selection (``"auto"``) follows the amortization framing of
arXiv 2506.10356 — reordering is only worth paying for if the
per-iteration saving covers the one-time reordering cost within the
requested iteration horizon — and prefers cheap orderings when they
suffice (arXiv 2001.08448): candidates are ordered lightweight-first
and a cheaper ordering within 1% of the best total cost wins.

Since wire version 1 the auto recommendation is *predicted*, not
measured: the structural effectiveness predictor
(:mod:`repro.predict`) maps one community detection plus closed-form
compulsory traffic to per-candidate modeled seconds, so choosing a
technique computes **zero** candidate reorderings and zero cache
simulations (``serve.compute.*`` counters stay untouched).  Only the
chosen technique is then evaluated — and ``/v1/recommend``
(:meth:`ReorderService.handle_recommend`) skips even that.

Responses are *deterministic* given the store contents: a store hit is
byte-identical to the miss response that created the entries, because
both are rendered from the same stored ``eval``, ``perm`` and ``time``
entries (:mod:`repro.store`).  The body's one wall-clock value,
``reorder_seconds``, is the measurement stored in the ``time`` entry
when the permutation was first computed; every other wall-clock
metadatum lives in transport headers.

A hit never parses the permutation.  The ``perm`` entry holds it as
JSON array text, which the body carries as a
:class:`~repro.store.PermutationText` and
:func:`~repro.serve.httpd.render_body` splices in unchanged.  A miss
encodes the computed permutation once, and that one text is both the
stored entry and the body's, so hit and miss bodies cannot differ.

An upload's text is parsed once.  The service remembers, by the
SHA-256 of each text, the matrix digest and sizes its parse found,
but not its graph (:data:`MAX_UPLOAD_TEXTS` texts, least recently
used first out).  A repeated text is answered from that record, and
its graph is parsed again only when a computation needs it: a store
miss, or a matrix whose predictor features are not memoized.  The
``serve.upload.parse`` and ``serve.upload.reuse`` counters show which.

Concurrency: every (structure, technique, kernel, policy) key is
computed at most once at a time (:class:`SingleFlight`), each stage
checks the cooperative per-request deadline
(:func:`~repro.resilience.check_deadline`), and all store writes are
atomic with unique temp names.
"""

from __future__ import annotations

import hashlib
import io
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.api import recommendation_from_features
from repro.cache import POLICIES
from repro.errors import (
    BreakerOpenError,
    CorpusError,
    OverloadedError,
    ValidationError,
)
from repro.gpu.perf import model_run
from repro.gpu.specs import PlatformSpec, scaled_platform
from repro.graphs.corpus import PROFILES, load_graph
from repro.graphs.graph import Graph
from repro.graphs.io import read_matrix_market
from repro.obs import get_obs, logger
from repro.reorder.base import reorder_with_timing
from repro.reorder.registry import available_techniques, make_technique
from repro.resilience import cell_deadline, check_deadline
from repro.resilience.faults import fault_point
from repro.serve.admission import Admission
from repro.serve.breaker import CircuitBreaker
from repro.serve.coalesce import SingleFlight
from repro.sparse.convert import coo_to_csr
from repro.sparse.ops import is_symmetric
from repro.sparse.permute import permute_symmetric
from repro.store import (
    PermutationText,
    ResultStore,
    eval_key,
    eval_payload,
    matrix_digest,
    perm_key,
    perm_payload,
    resolve_store_dir,
)
from repro.trace.kernelspec import KernelSpec

#: Response body schema; bump on incompatible layout changes.
RESPONSE_SCHEMA = 1

#: Wire version of the request/response format, carried as ``"v"`` in
#: every response body so clients can pin what they parse.
WIRE_VERSION = 1

#: The trace schedule and mask of every served evaluation; with the
#: platform name they complete the eval key the experiment runner shares.
SCHEDULE = "sequential"
MASK = "none"

#: The no-reordering baseline the amortization comparison runs against.
BASELINE_TECHNIQUE = "original"

#: Lightweight-first candidate shortlist for ``technique: "auto"``
#: (arXiv 2001.08448: prefer cheap orderings when they suffice).
DEFAULT_CANDIDATES = ("degsort", "rcm", "rabbit", "rabbit++")

#: The complete ``/v1/reorder`` request vocabulary; anything else is a
#: 400 naming the offending key.
ALLOWED_KEYS = frozenset(
    (
        "matrix",
        "mtx",
        "technique",
        "kernel",
        "policy",
        "iterations",
        "deadline_seconds",
        "include_permutation",
    )
)

#: The ``/v1/recommend`` request vocabulary (prediction needs no
#: policy, permutation or technique).
RECOMMEND_KEYS = frozenset(
    ("matrix", "mtx", "kernel", "iterations", "deadline_seconds")
)

#: Upload texts remembered by the SHA-256 of their UTF-8 bytes, each
#: with its matrix digest and sizes but never its graph.
MAX_UPLOAD_TEXTS = 1024

#: Structural feature dicts kept, one per matrix digest.
MAX_FEATURE_ENTRIES = 256

#: Analytic ideal seconds kept, one per (matrix digest, kernel).
MAX_IDEAL_ENTRIES = 1024


class _LRU:
    """A thread-safe map that drops its least recently used entries
    beyond ``capacity``."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[object]:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _parse_upload(text: str) -> Graph:
    """The graph of one ``.mtx`` upload (raises the parser's errors)."""
    get_obs().counter("serve.upload.parse")
    coo = read_matrix_market(io.StringIO(text))
    return Graph(coo_to_csr(coo), directed=not is_symmetric(coo))


class ResolvedMatrix:
    """One request's matrix: its store digest and sizes, and its graph.

    A corpus matrix or a first-seen upload arrives with its graph.  A
    repeated upload arrives with only its text, which :meth:`graph`
    parses the first time a computation asks for it, inside a
    ``serve-load`` span of its own, so a request parses at most once.
    """

    __slots__ = ("digest", "n_nodes", "nnz", "_graph", "_text")

    def __init__(
        self,
        digest: str,
        n_nodes: int,
        nnz: int,
        graph: Optional[Graph] = None,
        text: Optional[str] = None,
    ) -> None:
        self.digest = digest
        self.n_nodes = n_nodes
        self.nnz = nnz
        self._graph = graph
        self._text = text

    @classmethod
    def of(cls, graph: Graph) -> "ResolvedMatrix":
        adjacency = graph.adjacency
        return cls(matrix_digest(adjacency), graph.n_nodes, adjacency.nnz, graph=graph)

    def graph(self) -> Graph:
        if self._graph is None:
            with get_obs().span("serve-load", matrix="upload"):
                self._graph = _parse_upload(self._text)
            self._text = None
        return self._graph

    def body(self, name: Optional[object]) -> Dict[str, object]:
        """The response body's ``matrix`` object."""
        return {
            "name": name,
            "digest": self.digest,
            "n_nodes": self.n_nodes,
            "nnz": self.nnz,
        }


@dataclass(frozen=True)
class ServeConfig:
    """Server-side knobs for one :class:`ReorderService` instance."""

    profile: str = "bench"
    platform: Optional[PlatformSpec] = None
    store_dir: Optional[str] = None
    default_technique: str = "auto"
    default_kernel: str = "spmv-csr"
    default_policy: str = "lru"
    default_iterations: int = 100
    default_deadline_seconds: Optional[float] = None
    candidates: Tuple[str, ...] = DEFAULT_CANDIDATES
    max_upload_bytes: int = 16 * 1024 * 1024
    #: Admission control: at most ``max_inflight`` reorderings run at
    #: once, at most ``max_queue`` more wait up to ``queue_timeout``
    #: seconds for a slot; anything beyond is shed as a 429.  Store
    #: hits, coalesced followers and ``/v1/recommend`` bypass the gate.
    max_inflight: int = 4
    max_queue: int = 8
    queue_timeout: float = 2.0
    #: Circuit breakers around the compute and store fault domains
    #: (see :mod:`repro.serve.breaker` for the state machine).
    breaker_window: int = 16
    breaker_min_failures: int = 4
    breaker_failure_rate: float = 0.5
    breaker_recovery_seconds: float = 2.0
    breaker_probe_budget: int = 2

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValidationError(
                f"unknown profile {self.profile!r}; valid: {PROFILES}"
            )
        known = available_techniques()
        for name in self.candidates + (BASELINE_TECHNIQUE,):
            if name not in known:
                raise ValidationError(f"unknown candidate technique {name!r}")


@dataclass
class ServeResult:
    """One handled request: deterministic body + transport metadata."""

    payload: Dict[str, object]
    #: "hit" (store read), "miss" (computed here), "coalesced"
    #: (piggybacked on a concurrent identical computation), "predicted"
    #: (``/v1/recommend``) or "degraded" (predictor-only fallback).
    store: str = "miss"
    #: HTTP status the transport should use (202 for degraded answers).
    status: int = 200
    #: ``Retry-After`` hint in seconds, set on degraded answers so the
    #: client knows when the compute tier is worth asking again.
    retry_after: Optional[float] = None


class ReorderService:
    """Reordering-as-a-service request pipeline over a content store."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.platform = (
            self.config.platform
            if self.config.platform is not None
            else scaled_platform(self.config.profile)
        )
        self.store = ResultStore(resolve_store_dir(self.config.store_dir))
        self.admission = Admission(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            queue_timeout=self.config.queue_timeout,
        )
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                name,
                window=self.config.breaker_window,
                min_failures=self.config.breaker_min_failures,
                failure_rate=self.config.breaker_failure_rate,
                recovery_seconds=self.config.breaker_recovery_seconds,
                probe_budget=self.config.breaker_probe_budget,
            )
            for name in ("compute", "store")
        }
        #: Recent 500s, keyed by error_id, for ledger correlation.
        self._errors: deque = deque(maxlen=64)
        self._errors_lock = threading.Lock()
        self._flight = SingleFlight()
        self._corpus_lock = threading.Lock()
        self._corpus_matrices: Dict[str, ResolvedMatrix] = {}
        #: SHA-256 of an upload's text -> (digest, n_nodes, nnz).
        self._uploads = _LRU(MAX_UPLOAD_TEXTS)
        #: digest -> structural feature dict (one detection per matrix).
        self._features = _LRU(MAX_FEATURE_ENTRIES)
        #: (digest, kernel) -> analytic ideal seconds.
        self._ideal = _LRU(MAX_IDEAL_ENTRIES)
        self._predict_lock = threading.Lock()
        #: kernel -> effectiveness predictor (pretrained or lazily fit).
        self._predictors: Dict[str, object] = {}

    # -- request entry point --------------------------------------------

    def handle(self, request: Dict[str, object]) -> ServeResult:
        """Serve one request dict (see module docstring for the schema).

        Raises :class:`ValidationError` for malformed requests,
        :class:`~repro.errors.CorpusError` for unknown corpus names and
        :class:`~repro.errors.CellTimeoutError` when the per-request
        deadline expires; the transport maps these to 400/404/504.
        """
        if not isinstance(request, dict):
            raise ValidationError("request body must be a JSON object")
        self._reject_unknown_keys(request, ALLOWED_KEYS)
        technique = self._str_field(
            request, "technique", self.config.default_technique
        )
        kernel = self._str_field(request, "kernel", self.config.default_kernel)
        KernelSpec.parse(kernel)  # reject malformed kernel names up front
        policy = self._str_field(request, "policy", self.config.default_policy)
        if policy not in POLICIES:
            raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
        if technique != "auto" and technique not in available_techniques():
            raise ValidationError(
                f"unknown technique {technique!r} (or 'auto'); "
                f"available: {available_techniques()}"
            )
        iterations = request.get("iterations", self.config.default_iterations)
        if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 1:
            raise ValidationError(
                f"iterations must be a positive integer, got {iterations!r}"
            )
        deadline = request.get(
            "deadline_seconds", self.config.default_deadline_seconds
        )
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise ValidationError(
                f"deadline_seconds must be a positive number, got {deadline!r}"
            )
        include_permutation = bool(request.get("include_permutation", True))

        name = request.get("matrix")
        mtx = request.get("mtx")
        if (name is None) == (mtx is None):
            raise ValidationError(
                "request needs exactly one of 'matrix' (corpus name) or "
                "'mtx' (MatrixMarket text)"
            )

        requested = technique
        label = f"serve:{name if name is not None else 'upload'}:{technique}"
        with cell_deadline(deadline, label):
            with get_obs().span("serve-load", matrix=name or "upload"):
                matrix = self._resolve_matrix(name, mtx)
            check_deadline()
            recommendation = None
            if technique == "auto":
                technique, recommendation = self._recommend(
                    matrix, kernel, iterations
                )
            try:
                cell, store_state = self._evaluate(
                    matrix, technique, kernel, policy
                )
            except BreakerOpenError as exc:
                # Degraded mode: the compute tier is sick, but an
                # "auto" request already has a full predictor answer —
                # serve that (marked degraded, 202) instead of failing.
                if recommendation is None:
                    raise
                get_obs().counter("serve.request.degrade")
                return self._degraded_result(
                    name, matrix, technique, kernel, policy,
                    iterations, recommendation, exc,
                )

        body: Dict[str, object] = {
            "v": WIRE_VERSION,
            "schema": RESPONSE_SCHEMA,
            "degraded": False,
            "matrix": matrix.body(name),
            "technique": technique,
            "requested_technique": requested,
            "kernel": kernel,
            "policy": policy,
            "platform": self.platform.name,
            "iterations": iterations,
            "recommendation": recommendation,
            "reorder_seconds": cell["seconds"],
            "perm_key": cell["eval"]["perm_key"],
            "eval_key": cell["eval"]["eval_key"],
            "model": cell["eval"]["model"],
            "permutation": cell["permutation"] if include_permutation else None,
        }
        return ServeResult(payload=body, store=store_state)

    def _degraded_result(
        self,
        name: Optional[object],
        matrix: ResolvedMatrix,
        technique: str,
        kernel: str,
        policy: str,
        iterations: int,
        recommendation: Dict[str, object],
        exc: BreakerOpenError,
    ) -> ServeResult:
        """Predictor-only answer for an ``auto`` request under an open
        compute breaker: same body shape as a normal response, but the
        model numbers are *predicted* (no permutation, no store keys)
        and ``"degraded": true`` tells the client to retry later for
        the real evaluation."""
        row: Dict[str, object] = {}
        for candidate in recommendation.get("candidates", ()):
            if candidate.get("technique") == technique:
                row = candidate
                break
        else:
            baseline = recommendation.get("baseline") or {}
            if baseline.get("technique") == technique:
                row = baseline
        body: Dict[str, object] = {
            "v": WIRE_VERSION,
            "schema": RESPONSE_SCHEMA,
            "degraded": True,
            "matrix": matrix.body(name),
            "technique": technique,
            "requested_technique": "auto",
            "kernel": kernel,
            "policy": policy,
            "platform": self.platform.name,
            "iterations": iterations,
            "recommendation": recommendation,
            "reorder_seconds": row.get("reorder_seconds"),
            "perm_key": None,
            "eval_key": None,
            "model": {
                "predicted": True,
                "modeled_seconds": row.get("modeled_seconds"),
                "total_seconds": row.get("total_seconds"),
            },
            "permutation": None,
        }
        return ServeResult(
            payload=body,
            store="degraded",
            status=202,
            retry_after=max(0.1, exc.retry_after),
        )

    # -- matrix resolution ----------------------------------------------

    def _resolve_matrix(
        self, name: Optional[object], mtx: Optional[object]
    ) -> ResolvedMatrix:
        if name is not None:
            if not isinstance(name, str):
                raise ValidationError("'matrix' must be a corpus name string")
            with self._corpus_lock:
                cached = self._corpus_matrices.get(name)
            if cached is not None:
                return cached
            matrix = ResolvedMatrix.of(load_graph(name))  # CorpusError if unknown
            with self._corpus_lock:
                self._corpus_matrices[name] = matrix
            return matrix
        if not isinstance(mtx, str):
            raise ValidationError("'mtx' must be MatrixMarket text")
        if len(mtx) > self.config.max_upload_bytes:
            raise ValidationError(
                f"upload exceeds {self.config.max_upload_bytes} bytes"
            )
        # A repeated text is answered from what its first parse learned;
        # its graph is parsed again only if a computation needs it.
        text_key = hashlib.sha256(mtx.encode("utf-8", "surrogatepass")).hexdigest()
        known = self._uploads.get(text_key)
        if known is not None:
            get_obs().counter("serve.upload.reuse")
            return ResolvedMatrix(*known, text=mtx)
        matrix = ResolvedMatrix.of(_parse_upload(mtx))
        self._uploads.put(text_key, (matrix.digest, matrix.n_nodes, matrix.nnz))
        return matrix

    # -- store access behind its circuit breaker -------------------------
    #
    # A sick store (failing disk, injected store.* faults) must
    # degrade the service to recompute-and-skip-persist, never fail a
    # request: reads become misses, writes become no-ops, and once the
    # failure rate trips the breaker the store is bypassed outright
    # until half-open probes see it recover.

    def _store_get(self, kind: str, key: str) -> Optional[Dict[str, object]]:
        breaker = self.breakers["store"]
        if not breaker.acquire():
            get_obs().counter("serve.store.bypass")
            return None
        try:
            value = self.store.get(kind, key)
        except Exception:
            breaker.failure()
            logger.exception("serve: store get failed for %s/%s…", kind, key[:12])
            return None
        breaker.success()
        return value

    def _store_put(self, kind: str, key: str, payload: Dict[str, object]) -> None:
        breaker = self.breakers["store"]
        if not breaker.acquire():
            get_obs().counter("serve.store.bypass")
            return
        try:
            self.store.put(kind, key, payload)
        except Exception:
            breaker.failure()
            logger.exception("serve: store put failed for %s/%s…", kind, key[:12])
            return
        breaker.success()

    # -- evaluation (store-backed, coalesced) ---------------------------

    def _evaluate(
        self, matrix: ResolvedMatrix, technique: str, kernel: str, policy: str
    ) -> Tuple[Dict[str, object], str]:
        """Evaluated cell (its ``eval`` payload, permutation and
        reordering seconds) plus its store state."""
        pkey = perm_key(matrix.digest, technique)
        key = eval_key(pkey, kernel, policy, self.platform.name, SCHEDULE, MASK)
        cached = self._stored_cell(key, pkey)
        if cached is not None:
            return cached, "hit"

        def compute() -> Dict[str, object]:
            # A concurrent flight (or another process) may have landed
            # the entries between our miss and winning the flight lead.
            landed = self._stored_cell(key, pkey)
            if landed is not None:
                return landed
            # Only genuine compute passes the breaker + admission gate:
            # hits, coalesced followers and /v1/recommend never queue.
            breaker = self.breakers["compute"]
            if not breaker.acquire():
                raise BreakerOpenError(
                    f"compute breaker open ({technique}|{kernel})",
                    retry_after=max(0.1, breaker.retry_after()),
                )
            try:
                with self.admission.admit(label=f"{technique}|{kernel}"):
                    get_obs().counter("serve.compute.eval")
                    fault_point("serve.compute", label=f"{technique}|{kernel}")
                    check_deadline()
                    with get_obs().span(
                        "serve-eval", technique=technique, kernel=kernel,
                        policy=policy,
                    ):
                        graph = matrix.graph()
                        permutation, text, seconds = self._permutation(
                            graph, matrix.digest, technique
                        )
                        check_deadline()
                        permuted = permute_symmetric(graph.adjacency, permutation)
                        check_deadline()
                        trace = KernelSpec.parse(kernel).build_trace(
                            permuted, self.platform, schedule=SCHEDULE
                        )
                        run = model_run(trace, self.platform, policy=policy)
                    payload = eval_payload(
                        key, pkey, kernel, policy, self.platform.name,
                        SCHEDULE, MASK, run,
                    )
                    self._store_put("eval", key, payload)
            except OverloadedError:
                # Shed before the pipeline ran: says nothing about the
                # compute tier's health, so no breaker outcome.
                breaker.cancel()
                raise
            except (ValidationError, CorpusError):
                # Client errors (e.g. a kernel spec incompatible with
                # this matrix, caught during trace build) must not
                # count against the compute tier: a burst of bad
                # requests would otherwise open the breaker and take
                # down service for well-formed ones.
                breaker.cancel()
                raise
            except BaseException:
                breaker.failure()
                raise
            breaker.success()
            return {"eval": payload, "permutation": text, "seconds": seconds}

        result, led = self._flight.do(f"eval:{key}", compute)
        return result, ("miss" if led else "coalesced")

    def _stored_cell(self, key: str, pkey: str) -> Optional[Dict[str, object]]:
        """The cell from its ``eval``, ``perm`` and ``time`` entries, or
        ``None`` when any of them is missing."""
        evaluation = self._store_get("eval", key)
        perm = self._store_get("perm", pkey) if evaluation is not None else None
        timing = self._store_get("time", pkey) if perm is not None else None
        if timing is None:
            return None
        return {
            "eval": evaluation,
            "permutation": PermutationText(perm["permutation"]),
            "seconds": timing["seconds"],
        }

    def _permutation(
        self, graph: Graph, digest: str, technique: str
    ) -> Tuple[np.ndarray, PermutationText, float]:
        """Store-backed, coalesced permutation (as an array and as its
        ``perm`` entry's text) and its measured seconds.

        Runs under the eval flight's admission slot and breaker
        accounting — no second gate here.
        """
        key = perm_key(digest, technique)

        def compute() -> Tuple[np.ndarray, PermutationText, float]:
            stored = self._store_get("perm", key)
            timing = self._store_get("time", key) if stored is not None else None
            if timing is not None:
                text = PermutationText(stored["permutation"])
                return np.asarray(text, dtype=np.int64), text, timing["seconds"]
            get_obs().counter("serve.compute.permutation")
            check_deadline()
            timed = reorder_with_timing(make_technique(technique), graph)
            payload = perm_payload(key, digest, technique, timed.permutation)
            self._store_put("perm", key, payload)
            self._store_put("time", key, {"perm_key": key, "seconds": timed.seconds})
            return timed.permutation, PermutationText(payload["permutation"]), timed.seconds

        result, _led = self._flight.do(f"perm:{key}", compute)
        return result

    # -- technique recommendation (predictor-backed) ---------------------

    def handle_recommend(self, request: Dict[str, object]) -> ServeResult:
        """Serve one ``/v1/recommend`` request.

        Pure prediction: resolves the matrix, extracts structural
        features (one community detection, cached per matrix digest),
        and runs the candidate list through the effectiveness
        predictor.  No permutation is computed, no trace is built, no
        cache is simulated — the ``serve.compute.*`` counters never
        move on this path.
        """
        if not isinstance(request, dict):
            raise ValidationError("request body must be a JSON object")
        self._reject_unknown_keys(request, RECOMMEND_KEYS)
        kernel = self._str_field(request, "kernel", self.config.default_kernel)
        KernelSpec.parse(kernel)
        iterations = request.get("iterations", self.config.default_iterations)
        if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 1:
            raise ValidationError(
                f"iterations must be a positive integer, got {iterations!r}"
            )
        deadline = request.get(
            "deadline_seconds", self.config.default_deadline_seconds
        )
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise ValidationError(
                f"deadline_seconds must be a positive number, got {deadline!r}"
            )
        name = request.get("matrix")
        mtx = request.get("mtx")
        if (name is None) == (mtx is None):
            raise ValidationError(
                "request needs exactly one of 'matrix' (corpus name) or "
                "'mtx' (MatrixMarket text)"
            )
        with cell_deadline(deadline, f"recommend:{name or 'upload'}"):
            with get_obs().span("serve-load", matrix=name or "upload"):
                matrix = self._resolve_matrix(name, mtx)
            check_deadline()
            chosen, recommendation = self._recommend(matrix, kernel, iterations)
        body: Dict[str, object] = {
            "v": WIRE_VERSION,
            "schema": RESPONSE_SCHEMA,
            "matrix": matrix.body(name),
            "kernel": kernel,
            "platform": self.platform.name,
            "iterations": iterations,
            "technique": chosen,
            "recommendation": recommendation,
        }
        return ServeResult(payload=body, store="predicted")

    def _recommend(
        self, matrix: ResolvedMatrix, kernel: str, iterations: int
    ) -> Tuple[str, Dict[str, object]]:
        """Predicted amortization-framed technique choice.

        Delegates the cost comparison to
        :func:`repro.api.recommendation_from_features`: total candidate
        cost over the horizon is ``reorder_seconds + iterations *
        modeled_seconds`` — all four numbers per candidate predicted
        from structural features, so no candidate reordering or
        simulation runs here.
        """
        with get_obs().span("serve-recommend", kernel=kernel):
            predictor = self._predictor(kernel)
            features = self._features_for(matrix)
            check_deadline()
            ideal_key = (matrix.digest, kernel)
            ideal = self._ideal.get(ideal_key)
            if ideal is None:
                from repro.predict.features import analytic_ideal_seconds

                ideal = analytic_ideal_seconds(matrix.graph(), kernel, self.platform)
                self._ideal.put(ideal_key, ideal)
            recommendation = recommendation_from_features(
                predictor,
                features,
                ideal,
                iterations=iterations,
                candidates=self.config.candidates,
            )
        return recommendation.chosen, recommendation.to_json()

    def _features_for(self, matrix: ResolvedMatrix) -> Dict[str, float]:
        cached = self._features.get(matrix.digest)
        if cached is not None:
            return cached
        from repro.predict.features import structural_features

        graph = matrix.graph()
        with get_obs().span("serve-features", digest=matrix.digest[:12]):
            features = structural_features(graph, self.platform)
        self._features.put(matrix.digest, features)
        return features

    def _predictor(self, kernel: str):
        """Per-kernel predictor: pretrained coefficients, else one fit.

        Pretrained sets are committed for the common (profile, kernel)
        pairs; the fallback fit runs the profile corpus through the
        memoized experiment runner (slow once, then disk-cached).
        """
        with self._predict_lock:
            cached = self._predictors.get(kernel)
        if cached is not None:
            return cached
        from repro.predict.pretrained import load_pretrained

        predictor = load_pretrained(self.config.profile, kernel)
        if predictor is None:
            from repro.predict.validate import fit_predictor

            predictor = fit_predictor(profile=self.config.profile, kernel=kernel)
        with self._predict_lock:
            return self._predictors.setdefault(kernel, predictor)

    # -- misc ------------------------------------------------------------

    @staticmethod
    def _reject_unknown_keys(request: Dict[str, object], allowed) -> None:
        for key in request:
            if key not in allowed:
                raise ValidationError(
                    f"unknown request key {key!r}; allowed keys: "
                    f"{', '.join(sorted(allowed))}"
                )

    @staticmethod
    def _str_field(request: Dict[str, object], key: str, default: str) -> str:
        value = request.get(key, default)
        if not isinstance(value, str):
            raise ValidationError(f"{key!r} must be a string, got {value!r}")
        return value

    def record_error(
        self, error_id: str, path: str, message: str, traceback_text: str = ""
    ) -> None:
        """Remember one 500 by its ``error_id`` (echoed to the client)
        so the run-ledger record correlates a client-visible failure
        with the server-side traceback."""
        with self._errors_lock:
            self._errors.append(
                {
                    "error_id": error_id,
                    "path": path,
                    "error": message,
                    "traceback": traceback_text,
                }
            )

    def recent_errors(self) -> List[Dict[str, object]]:
        """The most recent 500s (bounded), oldest first."""
        with self._errors_lock:
            return list(self._errors)

    def stats(self) -> Dict[str, object]:
        """Store/coalescing/overload stats for the ``/stats`` endpoint."""
        return {
            "store": self.store.stats(),
            "inflight": self._flight.inflight(),
            "admission": {
                "max_inflight": self.admission.max_inflight,
                "max_queue": self.admission.max_queue,
                "queue_timeout": self.admission.queue_timeout,
                "inflight": self.admission.inflight(),
                "queued": self.admission.depth(),
            },
            "breakers": {
                name: breaker.snapshot()
                for name, breaker in self.breakers.items()
            },
            "errors_recorded": len(self._errors),
            "profile": self.config.profile,
            "platform": self.platform.name,
        }
