"""One benchmark workload in its own process: set up, time, check.

``bench/run.py`` starts this script once per workload, with fresh
temporary directories in ``REPRO_CACHE_DIR`` / ``REPRO_SERVE_STORE`` /
``REPRO_RUNS_DIR``, a scrubbed environment and a temporary working
directory.  The script

1. sets its inputs up ``SETUP_REPEATS`` times from a cold corpus cache
   (``setup_s`` = interpreter start to imports done, plus the median
   set-up);
2. runs timed passes of the workload until ``--seconds`` would be
   exceeded (at least one).  Each pass starts from an empty memo
   directory or serve store, so every pass does the same work;
3. checks every output against ``bench/expected/<workload>.json`` and
   the paper's claims;
4. prints one JSON result as the last line of standard output.

With ``--trace 1`` passes alternate untraced / traced, the traced ones
under an in-memory :class:`repro.obs.Instrumentation`, and the spans
become the per-layer table (see ``layers.py``).  The traced run also
probes the peak memory of each pipeline layer on the workload's
heaviest cell and writes ``bench/out/<workload>.trace.json``
(Perfetto-loadable) and ``bench/out/<workload>.layers.txt``.

``--write-expected`` runs one pass and writes the expected-output file
instead of checking it; ``run.py`` runs it with the reference engines.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import simulate
from repro.experiments.runner import ExperimentRunner
from repro.gpu.specs import scaled_platform
from repro.graphs.corpus import corpus_names, load_graph, load_matrix
from repro.graphs.io import write_matrix_market
from repro.obs import Instrumentation, MemorySink, get_obs, using
from repro.obs.rss import peak_rss_kb
from repro.obs.tracefile import to_chrome_trace
from repro.reorder.registry import PAPER_TECHNIQUES, make_technique
from repro.serve.bench import zipf_trace
from repro.serve.httpd import render_body
from repro.serve.service import ReorderService, ServeConfig
from repro.sparse.permute import permute_symmetric
from repro.trace.kernelspec import KernelSpec

import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: ``(name, unit)`` of every end-to-end metric (``--trace 0``).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Layers whose peak memory the traced run probes, in pipeline order.
PROBED = ("graphs.load", "reorder.order", "sparse.permute", "trace.build", "cache.sim")

#: ``(name, unit)`` of every per-layer metric (``--trace 1``).
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (f"{layer}.{suffix}", unit)
    for layer in layers.LAYER_NAMES
    for suffix, unit in (("s", "s"), ("share", "fraction"), ("calls", "count"))
) + tuple((f"{layer}.peak_rss_mb", "MB") for layer in PROBED) + (
    ("trace.build.accesses_per_s", "1/s"),
    ("cache.sim.accesses", "count"),
    ("cache.sim.accesses_per_s", "1/s"),
    ("cache.sim.hit_rate", "fraction"),
    ("experiments.memo.writes", "count"),
    ("serve.compute.evals", "count"),
    ("serve.store.hit_rate", "fraction"),
    ("other.s", "s"),
    ("traced_wall_s", "s"),
    ("tracing_overhead", "fraction"),
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def perm_sha256(permutation) -> str:
    array = np.ascontiguousarray(np.asarray(permutation, dtype=np.int64))
    return hashlib.sha256(array.tobytes()).hexdigest()


def outcome(perm_digest: str, accesses, misses, traffic_bytes, compulsory_bytes) -> Dict:
    """The deterministic part of one evaluation, as the expected files store it."""
    return {
        "perm_sha256": perm_digest,
        "accesses": int(accesses),
        "misses": int(misses),
        "traffic_bytes": int(traffic_bytes),
        "compulsory_bytes": int(compulsory_bytes),
    }


@dataclass
class PassResult:
    #: Seconds of the pass, calibration samples excluded.
    wall: float
    #: Seconds of each operation, keyed by cell or request index.
    latencies: Dict[object, float]
    attempted: int
    failed: int
    #: Deterministic outputs keyed like the expected file (sweeps).
    outputs: Dict[str, object] = field(default_factory=dict)
    #: Failed claim or isolation checks, one line each.
    problems: List[str] = field(default_factory=list)
    #: serve-mix: store hits among /v1/reorder requests.
    store_hits: int = 0
    reorders: int = 0
    traced: bool = False
    spans: List[Dict[str, object]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)


class Calibration:
    """Machine-speed samples taken between the operations of timed passes.

    The CPUs this benchmark runs on may be shared, and then their speed
    drifts by tens of percent over minutes.  Every time a run reports is
    scaled by ``REFERENCE_S / median(samples)``: what the run would have
    taken on a machine that runs the calibration unit in ``REFERENCE_S``.
    The unit uses no code of the program, so a change to the program
    moves the reported times but not the scale.
    """

    #: Median unit time on the reference machine (a 2-vCPU KVM guest on
    #: an Intel Xeon, model 207), so reported times read as its seconds.
    REFERENCE_S = 0.0058
    #: At most one sample per interval; a sample costs ~3% of it.
    INTERVAL_S = 0.25

    def __init__(self) -> None:
        # Small arrays (~1 MB): they stay resident through the run and
        # so count in its peak RSS.
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 17, 1 << 15)
        self._table = rng.integers(0, 1 << 20, 1 << 17)
        self.samples: List[float] = []
        self._last = -math.inf

    def _unit(self) -> None:
        """Interpreter work, a sort, a random gather and a histogram."""
        total = 0
        seen = {}
        for i in range(30_000):
            total += i * i % 7
            seen[i & 1023] = total
        np.argsort(self._keys, kind="stable")
        self._table[self._keys].sum()
        np.bincount(self._keys & 0xFFF)

    def maybe_sample(self) -> float:
        """Sample unless one was taken within ``INTERVAL_S``; seconds spent."""
        began = time.perf_counter()
        if began - self._last < self.INTERVAL_S:
            return 0.0
        self._unit()
        self._last = time.perf_counter()
        self.samples.append(self._last - began)
        return self._last - began

    def scale(self) -> float:
        return self.REFERENCE_S / statistics.median(self.samples)


# -- sweeps -------------------------------------------------------------


Cell = Tuple[str, str, str, str]


def cell_key(cell: Cell) -> str:
    return "|".join(cell)


@dataclass(frozen=True)
class Sweep:
    """Corpus × techniques × kernels × policies through ``ExperimentRunner.run``."""

    profile: str
    matrices: Tuple[str, ...]
    techniques: Tuple[str, ...]
    kernels: Tuple[str, ...]
    policies: Tuple[str, ...]
    #: The cell whose layers the traced run probes for peak memory.
    probe: Cell
    #: Matrices on which RABBIT++ must move less spmv-csr/lru traffic
    #: than RABBIT (paper Fig. 7, low-insularity matrices).
    fig7: Tuple[str, ...] = ()
    #: Each pass gets an empty memo directory under this one.
    scratch_env: str = "REPRO_CACHE_DIR"

    def setup(self, seed: int) -> List[Cell]:
        """Generate the corpus matrices; the cells, in a fixed order.

        The order ignores ``seed``: the work does not depend on it, but
        the peak RSS does (by ~2% between orders), and so does which
        cell pays for each reordering shared by several kernels.
        """
        load_matrix.cache_clear()
        for matrix in self.matrices:
            load_matrix(matrix)
        return [
            (matrix, technique, kernel, policy)
            for matrix in self.matrices
            for technique in self.techniques
            for kernel in self.kernels
            for policy in self.policies
        ]

    def run_pass(
        self,
        cells: List[Cell],
        scratch: str,
        expected: Optional[Dict[str, object]],
        calibration: Optional[Calibration],
    ) -> PassResult:
        obs = get_obs()
        runner = ExperimentRunner(profile=self.profile, cache_dir=scratch)
        latencies: Dict[object, float] = {}
        records = {}
        failed = 0
        calibrating = 0.0
        start = time.perf_counter()
        with obs.span("pass"):
            for matrix in self.matrices:
                with obs.span("graph-load", matrix=matrix):
                    runner.graph(matrix).to_undirected()
            for cell in cells:
                if calibration is not None:
                    calibrating += calibration.maybe_sample()
                began = time.perf_counter()
                try:
                    with obs.span("cell"):
                        records[cell] = runner.run(*cell)
                except Exception:  # noqa: BLE001 - a failed cell is counted, not fatal
                    failed += 1
                    log(f"cell {cell_key(cell)} failed:\n{traceback.format_exc()}")
                latencies[cell] = time.perf_counter() - began
        wall = time.perf_counter() - start - calibrating
        outputs = {
            cell_key(cell): outcome(
                perm_sha256(runner.permutation(cell[0], cell[1]).permutation),
                record.accesses,
                record.misses,
                record.traffic_bytes,
                record.compulsory_bytes,
            )
            for cell, record in records.items()
        }
        problems = []
        for matrix in self.fig7:
            traffic = {
                technique: records[(matrix, technique, "spmv-csr", "lru")].normalized_traffic
                for technique in ("rabbit", "rabbit++")
                if (matrix, technique, "spmv-csr", "lru") in records
            }
            if len(traffic) != 2 or not traffic["rabbit++"] < traffic["rabbit"]:
                problems.append(f"Fig. 7 claim RABBIT++ < RABBIT fails on {matrix}: {traffic}")
        if expected is not None:
            for key, got in outputs.items():
                if expected["cells"].get(key) != got:
                    failed += 1
                    log(f"mismatch {key}: expected {expected['cells'].get(key)}, got {got}")
        return PassResult(wall, latencies, len(cells), failed, outputs, problems)

    def expected_document(self, result: PassResult) -> Dict[str, object]:
        return {"cells": dict(sorted(result.outputs.items()))}


# -- serving ------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str  # "recommend" | "reorder" | "upload"
    matrix: str
    technique: str
    kernel: str
    body: Dict[str, object]


class ServeChecker:
    """Checks each response as it arrives.

    Every response must carry the expected structure digest and
    technique; the first response for an eval key fixes its ``model``
    and ``perm_key`` and every later one must repeat them; a freshly
    computed response (store miss) must match the expected file.
    """

    def __init__(self, expected: Optional[Dict[str, object]]) -> None:
        self.expected = expected
        self.first: Dict[str, Tuple[object, object]] = {}
        self.failed = 0
        self.store_hits = 0
        self.reorders = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        log(message)

    def check(self, request: Request, status: int, store: str, payload: Dict) -> None:
        if status != 200:
            self.fail(f"{request.kind} {request.matrix}: HTTP-equivalent status {status}")
            return
        if request.kind != "recommend":
            self.reorders += 1
            self.store_hits += store == "hit"
            first = self.first.setdefault(
                payload["eval_key"], (payload["perm_key"], payload["model"])
            )
            if (payload["perm_key"], payload["model"]) != first:
                self.fail(f"eval {payload['eval_key'][:12]} changed between responses")
                return
        if self.expected is None:
            return
        expected = self.expected
        problems = []
        if payload["matrix"]["digest"] != expected["digests"][request.matrix]:
            problems.append("structure digest")
        chosen = expected["recommend"][request.matrix]
        technique = chosen if request.technique == "auto" else request.technique
        if payload["technique"] != technique:
            problems.append(f"technique {payload['technique']} != {technique}")
        if request.kind != "recommend" and store == "miss":
            model = payload["model"]
            got = outcome(
                perm_sha256(payload["permutation"]),
                model["accesses"],
                model["misses"],
                model["traffic_bytes"],
                model["compulsory_bytes"],
            )
            want = expected["evals"].get(f"{request.matrix}|{technique}|{request.kernel}")
            if got != want:
                problems.append(f"outputs {got} != expected {want}")
        if problems:
            self.fail(f"{request.kind} {request.matrix}/{request.technique}/{request.kernel}: {problems}")


@dataclass(frozen=True)
class ServeMix:
    """A zipf-skewed request mix, replayed in-process by one closed-loop client.

    One client, because with two the hit latency is bimodal: a hit
    either overlaps the other client's compute and waits for the GIL or
    it does not, and its median swung by 11-22% between runs.
    """

    profile: str
    n_requests: int
    skew: float
    recommend_share: float
    upload_share: float
    #: ``/v1/reorder`` (technique, kernel) choices, drawn uniformly.
    #: ``auto`` stays on spmv-csr: the only kernels with a committed
    #: predictor; any other kernel would fit one inside a request.
    combos: Tuple[Tuple[str, str], ...]
    probe: Cell
    #: Each pass gets an empty store directory under this one.
    scratch_env: str = "REPRO_SERVE_STORE"

    def setup(self, seed: int) -> List[Request]:
        """Draw the request trace and render the ``.mtx`` upload bodies."""
        load_matrix.cache_clear()
        matrices = zipf_trace(
            corpus_names(self.profile), self.n_requests, skew=self.skew, seed=seed
        )
        rng = random.Random(f"serve-mix/{seed}")
        texts: Dict[str, str] = {}
        trace = []
        for matrix in matrices:
            draw = rng.random()
            if draw < self.recommend_share:
                body = {"matrix": matrix, "kernel": "spmv-csr"}
                trace.append(Request("recommend", matrix, "auto", "spmv-csr", body))
                continue
            technique, kernel = rng.choice(self.combos)
            if draw < self.recommend_share + self.upload_share:
                if matrix not in texts:
                    text = io.StringIO()
                    write_matrix_market(load_matrix(matrix), text)
                    texts[matrix] = text.getvalue()
                body = {"mtx": texts[matrix], "technique": technique, "kernel": kernel}
                trace.append(Request("upload", matrix, technique, kernel, body))
            else:
                body = {"matrix": matrix, "technique": technique, "kernel": kernel}
                trace.append(Request("reorder", matrix, technique, kernel, body))
        return trace

    def run_pass(
        self,
        trace: List[Request],
        scratch: str,
        expected: Optional[Dict[str, object]],
        calibration: Optional[Calibration],
    ) -> PassResult:
        # Like a freshly started server: corpus matrices are generated
        # on first request, inside the serve-load span.
        load_matrix.cache_clear()
        obs = get_obs()
        service = ReorderService(ServeConfig(profile=self.profile, store_dir=scratch))
        checker = ServeChecker(expected)
        latencies: Dict[object, float] = {}
        calibrating = 0.0
        start = time.perf_counter()
        with obs.span("pass"):
            for index, request in enumerate(trace):
                if calibration is not None:
                    calibrating += calibration.maybe_sample()
                handler = (
                    service.handle_recommend if request.kind == "recommend" else service.handle
                )
                began = time.perf_counter()
                try:
                    with obs.span("request"):
                        result = handler(request.body)
                        render_body(result.payload)
                except Exception:  # noqa: BLE001 - counted as a failed request
                    latencies[index] = time.perf_counter() - began
                    checker.fail(f"request {index} failed:\n{traceback.format_exc()}")
                    continue
                latencies[index] = time.perf_counter() - began
                checker.check(request, result.status, result.store, result.payload)
        wall = time.perf_counter() - start - calibrating
        result = PassResult(wall, latencies, len(trace), checker.failed)
        result.store_hits, result.reorders = checker.store_hits, checker.reorders
        # Nothing in the mix may fit a predictor: that would run corpus
        # sweeps through the experiment memo (or write into the cwd).
        for where in (os.environ.get("REPRO_CACHE_DIR", ""), os.getcwd()):
            found = sum(len(files) for _, _, files in os.walk(where)) if where else 0
            if found:
                result.problems.append(f"{found} memo files written under {where}")
        return result

    def expected_document(self, result: PassResult) -> Dict[str, object]:
        """Evaluate every (matrix, technique, kernel) the mix can request."""
        service = ReorderService(
            ServeConfig(profile=self.profile, store_dir=os.environ["REPRO_SERVE_STORE"])
        )
        document: Dict[str, Dict[str, object]] = {"digests": {}, "recommend": {}, "evals": {}}
        for matrix in corpus_names(self.profile):
            answer = service.handle_recommend({"matrix": matrix, "kernel": "spmv-csr"})
            chosen = answer.payload["technique"]
            document["digests"][matrix] = answer.payload["matrix"]["digest"]
            document["recommend"][matrix] = chosen
            combos = {(chosen if t == "auto" else t, k) for t, k in self.combos}
            for technique, kernel in sorted(combos):
                payload = service.handle(
                    {"matrix": matrix, "technique": technique, "kernel": kernel}
                ).payload
                model = payload["model"]
                document["evals"][f"{matrix}|{technique}|{kernel}"] = outcome(
                    perm_sha256(payload["permutation"]),
                    model["accesses"],
                    model["misses"],
                    model["traffic_bytes"],
                    model["compulsory_bytes"],
                )
        return document


WORKLOADS = {
    # Reorder-bound: community detection and ordering dominate.
    "sweep-spmv": Sweep(
        profile="full",
        matrices=("soc-forum", "soc-messages", "comm-tight", "mesh3d-large"),
        techniques=("rabbit", "rabbit++", "boba", "gorder"),
        kernels=("spmv-csr",),
        policies=("lru",),
        probe=("soc-messages", "rabbit++", "spmv-csr", "lru"),
        fig7=("soc-forum", "soc-messages"),
    ),
    # Trace- and simulation-bound; trace building is the memory peak.
    "sweep-spgemm": Sweep(
        profile="bench",
        matrices=("bench-social", "bench-rmat", "bench-comm"),
        techniques=("rabbit++", "boba"),
        kernels=("spgemm-csr",),
        policies=("lru",),
        probe=("bench-social", "rabbit++", "spgemm-csr", "lru"),
    ),
    # Per-call-overhead-bound: ~9 ms cells on the tiny test corpus.
    "sweep-tiny": Sweep(
        profile="test",
        matrices=tuple(corpus_names("test")),
        techniques=PAPER_TECHNIQUES + ("rcm", "louvain", "boba"),
        kernels=("spmv-csr", "spmv-coo", "spmm-csr-4"),
        policies=("lru", "belady"),
        probe=("test-rmat", "louvain", "spmm-csr-4", "belady"),
    ),
    # Store hits beside compute misses, predictor answers and uploads.
    "serve-mix": ServeMix(
        profile="bench",
        n_requests=3000,
        skew=1.1,
        recommend_share=0.25,
        upload_share=0.05,
        combos=(("auto", "spmv-csr"),)
        + tuple(
            (technique, kernel)
            for technique in ("degsort", "rabbit", "rabbit++", "boba")
            for kernel in ("spmv-csr", "spmm-csr-4")
        ),
        probe=("bench-circuit", "rabbit++", "spmm-csr-4", "lru"),
    ),
}


# -- memory probes --------------------------------------------------------


def _status_kb(field_name: str) -> int:
    with open("/proc/self/status") as handle:
        match = re.search(rf"^{field_name}:\s+(\d+) kB", handle.read(), re.M)
    return int(match.group(1))


def _peak_mb(call: Callable[[], object]) -> Tuple[object, Optional[float]]:
    """Run ``call``; return its result and the RSS it added at its peak.

    Resets the kernel's high-water mark (``VmHWM``) by writing ``5`` to
    ``/proc/self/clear_refs``.  Without that file the peak is unknown
    and reported as ``None``, never estimated.
    """
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return call(), None
    before = _status_kb("VmRSS")
    value = call()
    return value, (_status_kb("VmHWM") - before) / 1024.0


def probe_memory(profile: str, cell: Cell) -> Dict[str, Optional[float]]:
    """Per-layer peak RSS of one cell, calling each layer directly.

    Runs before anything else in the process, so each layer's growth is
    measured from a heap that holds only the imports and earlier layers.
    """
    matrix, technique, kernel, policy = cell
    platform = scaled_platform(profile)
    peaks: Dict[str, Optional[float]] = {}
    graph, peaks["graphs.load"] = _peak_mb(lambda: load_graph(matrix).to_undirected())
    perm, peaks["reorder.order"] = _peak_mb(lambda: make_technique(technique).compute(graph))
    permuted, peaks["sparse.permute"] = _peak_mb(
        lambda: permute_symmetric(graph.adjacency, perm)
    )
    trace, peaks["trace.build"] = _peak_mb(
        lambda: KernelSpec.parse(kernel).build_trace(permuted, platform)
    )
    _, peaks["cache.sim"] = _peak_mb(
        lambda: simulate(trace, platform.cache_config(), policy=policy)
    )
    return peaks


# -- metrics --------------------------------------------------------------


def end_to_end_metrics(
    passes: List[PassResult], setup_s: float, scale: float
) -> Dict[str, float]:
    """Calibrated timings; an operation's latency is its median over passes."""
    per_op: Dict[object, List[float]] = {}
    for p in passes:
        for key, seconds in p.latencies.items():
            per_op.setdefault(key, []).append(seconds)
    latencies = [statistics.median(values) for values in per_op.values()]
    return {
        "setup_s": setup_s * scale,
        "wall_s": statistics.median(p.wall for p in passes) * scale,
        "p50_ms": statistics.median(latencies) * 1e3 * scale,
        "p99_ms": percentile(latencies, 99) * 1e3 * scale,
        "peak_rss_mb": peak_rss_kb() / 1024.0,
    }


def per_layer_metrics(
    passes: List[PassResult], peaks: Dict[str, Optional[float]]
) -> Tuple[Dict[str, Optional[float]], List[str], str]:
    """Per-pass layer metrics of the traced passes, failed checks, table text."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = len(traced)
    spans = [span for p in traced for span in p.spans]
    table, other = layers.layer_table(spans)
    wall = sum(p.wall for p in traced)
    metrics: Dict[str, Optional[float]] = {}
    for layer in layers.LAYER_NAMES:
        metrics[f"{layer}.s"] = table[layer]["s"] / n
        metrics[f"{layer}.share"] = table[layer]["s"] / wall
        metrics[f"{layer}.calls"] = table[layer]["calls"] / n
    for layer in PROBED:
        metrics[f"{layer}.peak_rss_mb"] = peaks.get(layer)

    def count(name: str) -> float:
        return sum(p.counters.get(name, 0) for p in traced)

    accesses = sum(
        float(s["tags"].get("accesses", 0)) for s in spans if s["name"] == "cache-sim"
    )
    trace_s, sim_s = table["trace.build"]["s"], table["cache.sim"]["s"]
    sim_hits = count("cache.lru.hits") + count("cache.belady.hits")
    sim_accesses = count("cache.lru.accesses") + count("cache.belady.accesses")
    reorders = sum(p.reorders for p in traced)
    metrics.update(
        {
            "trace.build.accesses_per_s": accesses / trace_s if trace_s else 0.0,
            "cache.sim.accesses": accesses / n,
            "cache.sim.accesses_per_s": accesses / sim_s if sim_s else 0.0,
            "cache.sim.hit_rate": sim_hits / sim_accesses if sim_accesses else 0.0,
            "experiments.memo.writes": sum(s["name"] == "memo-store" for s in spans) / n,
            "serve.compute.evals": count("serve.compute.eval") / n,
            "serve.store.hit_rate": (
                sum(p.store_hits for p in traced) / reorders if reorders else 0.0
            ),
            "other.s": other / n,
            "traced_wall_s": statistics.median(p.wall for p in traced),
            "tracing_overhead": statistics.median(p.wall for p in traced)
            / statistics.median(p.wall for p in untraced)
            - 1.0,
        }
    )
    problems = []
    attributed = sum(row["s"] for row in table.values()) + other
    if abs(attributed - wall) > 0.01 * wall:
        problems.append(f"layer self-times + other = {attributed:.3f}s, traced wall = {wall:.3f}s")
    text = layers.format_table(
        {layer: {"s": row["s"] / n, "calls": row["calls"] / n} for layer, row in table.items()},
        other / n,
        wall / n,
    )
    return metrics, problems, text


# -- passes and entry point ---------------------------------------------


def run_passes(
    workload, inputs, seconds: float, trace: bool, expected, calibration: Calibration
) -> List[PassResult]:
    """Timed passes until another round would overrun ``seconds``.

    A round is one untraced pass, plus one traced pass with ``trace``.
    Only untraced passes take calibration samples.
    """
    passes: List[PassResult] = []
    scratch_root = os.environ[workload.scratch_env]
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            scratch = os.path.join(scratch_root, f"pass-{len(passes)}")
            if traced:
                instr = Instrumentation(sink=MemorySink(), enabled=True)
                with using(instr):
                    result = workload.run_pass(inputs, scratch, expected, None)
                result.traced = True
                result.spans = instr.sink.by_kind("span")
                result.counters = instr.counters.snapshot()["counters"]
            else:
                result = workload.run_pass(inputs, scratch, expected, calibration)
            shutil.rmtree(scratch, ignore_errors=True)
            passes.append(result)
            log(
                f"pass {len(passes)}{' (traced)' if traced else ''}: "
                f"{result.wall:.3f}s, {result.attempted} ops, {result.failed} failed"
            )
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            return passes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True, help="parent's time.time() at spawn")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    import_s = time.time() - args.t0

    name = args.workload
    workload = WORKLOADS[name]
    expected_path = os.path.join(EXPECTED_DIR, f"{name}.json")
    expected = None
    if not args.write_expected:
        with open(expected_path) as handle:
            expected = json.load(handle)

    if args.trace:
        peaks = probe_memory(workload.profile, workload.probe)
    setups = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        inputs = workload.setup(args.seed)
        setups.append(time.perf_counter() - began)
    setup_s = import_s + statistics.median(setups)
    log(f"[{name}] seed {args.seed}: imports {import_s:.3f}s, set-ups {[round(s, 3) for s in setups]}")

    if args.write_expected:
        result = run_passes(workload, inputs, 0.0, False, None, Calibration())[0]
        document = {"workload": name, **workload.expected_document(result)}
        with open(expected_path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        log(f"wrote {expected_path}")
        for problem in result.problems:
            log(f"check failed: {problem}")
        ok = result.failed == 0 and not result.problems
        print(json.dumps({"correct": ok, "attempted": result.attempted, "failed": result.failed, "metrics": {}}))
        return 0

    calibration = Calibration()
    passes = run_passes(
        workload, inputs, args.seconds, bool(args.trace), expected, calibration
    )
    problems = [problem for p in passes for problem in p.problems]
    if args.trace:
        metrics, table_problems, text = per_layer_metrics(passes, peaks)
        problems += table_problems
        os.makedirs(OUT_DIR, exist_ok=True)
        last = [p for p in passes if p.traced][-1]
        with open(os.path.join(OUT_DIR, f"{name}.trace.json"), "w") as handle:
            json.dump(to_chrome_trace(last.spans), handle)
        with open(os.path.join(OUT_DIR, f"{name}.layers.txt"), "w") as handle:
            handle.write(text + "\n")
        log(text)
        units = dict(PER_LAYER)
    else:
        scale = calibration.scale()
        metrics = end_to_end_metrics(passes, setup_s, scale)
        log(
            f"calibration: {len(calibration.samples)} samples, scale {scale:.4f}; "
            f"uncalibrated wall {metrics['wall_s'] / scale:.3f}s"
        )
        units = dict(END_TO_END)
    for problem in problems:
        log(f"check failed: {problem}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
