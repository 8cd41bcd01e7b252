"""Command-line interface.

Examples::

    repro corpus list --profile bench
    repro metrics soc-forum
    repro evaluate soc-forum --technique rabbit++
    repro experiment fig2 --profile bench
    repro export soc-forum /tmp/soc-forum.mtx
    repro profile soc-forum --technique rabbit
    repro bench-reorder --scale 13 --jobs 2 --json BENCH_reorder.json
    repro cache-stats
    repro doctor
    repro run-all --jobs 4 --retries 2 --cell-timeout 120 --keep-going
    repro runs list
    repro trace <run_id> --chrome /tmp/trace.json
    repro serve --profile bench --port 8787 --deadline 30
    repro serve-bench --requests 60 --concurrency 4 --json BENCH_serve.json
    repro version

Observability flags (global, before the subcommand)::

    repro --log-level info --log-file /tmp/run.jsonl experiment fig2

``--log-file`` writes one JSON event per span end / counter flush
(see :mod:`repro.obs` for the schema); ``--log-level`` turns on human
log lines on stderr; ``--quiet`` suppresses progress reporting.

Every ``experiment``/``run-all`` invocation additionally writes a run
ledger under ``runs/<run_id>/`` — a ``manifest.json`` with args,
config, span totals and histogram summaries, plus the JSONL event
files from the parent *and* every pool worker (disable with
``--no-ledger``; relocate with ``--runs-dir`` or ``$REPRO_RUNS_DIR``).
``repro runs list|show`` browses the ledger; ``repro trace <run_id>``
renders the stitched cross-process span tree and exports Chrome
trace-event JSON.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

from repro import obs
from repro.cache import POLICIES
from repro.errors import SweepArgumentError, SweepFailure
from repro.experiments.report import render_table
from repro.experiments.run_all import ABLATIONS, DRIVERS, run_sweep, timing_summary
from repro.experiments.runner import ExperimentRunner, resolve_cache_dir
from repro.graphs.corpus import PROFILES, load_matrix, selection_report
from repro.graphs.io import write_matrix_market
from repro.obs import (
    Instrumentation,
    JsonlSink,
    NullSink,
    TeeSink,
    format_histograms,
    format_span_totals,
    get_obs,
)
from repro.obs.ledger import (
    RunLedger,
    effective_status,
    find_run_dir,
    list_runs,
    load_manifest,
    resolve_runs_dir,
)
from repro.reorder.benchreorder import SCALE_GRAPH
from repro.reorder.registry import available_techniques
from repro.resilience import RetryPolicy

LOG_LEVELS = ("debug", "info", "warning", "error")

#: Subcommands that write a run ledger (manifest + event files) under
#: ``runs/<run_id>/`` unless ``--no-ledger``; the value is the manifest
#: ``kind`` field.
_LEDGER_COMMANDS = {
    "experiment": "experiment",
    "run-all": "run-all",
    "serve": "serve",
    "serve-bench": "serve-bench",
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        instr, ledger = _make_instrumentation(args)
    except OSError as exc:
        print(f"repro: error: cannot open log file: {exc}", file=sys.stderr)
        return 2
    code: Optional[int] = None
    try:
        with obs.using(instr):
            try:
                code = args.handler(args)
            finally:
                instr.flush()
        return code
    finally:
        if ledger is not None:
            status = "ok" if code == 0 else ("error" if code is None else "failed")
            ledger.finalize(instr, exit_code=code, status=status)
            if not args.quiet:
                print(f"run ledger: {ledger.manifest_path}", file=sys.stderr)
        instr.close()


def _ledger_config(args: argparse.Namespace) -> dict:
    """The parsed CLI namespace as a JSON-friendly manifest section."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "handler" and not key.startswith("_")
    }


def _make_instrumentation(
    args: argparse.Namespace,
) -> "tuple[Instrumentation, Optional[RunLedger]]":
    """Build the per-invocation instrumentation (and run ledger) from
    the global flags.

    Ledger-bearing commands (see :data:`_LEDGER_COMMANDS`) get an
    *enabled* instrumentation whose events tee into the run directory
    — that directory doubles as the workers' trace dir, which is what
    stitches pool-worker spans into the parent trace.
    """
    if args.log_level:
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            stream=sys.stderr,
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )
    sinks: List = []
    if args.log_file:
        sinks.append(JsonlSink(path=args.log_file))
    ledger: Optional[RunLedger] = None
    if args.command in _LEDGER_COMMANDS and not getattr(args, "no_ledger", False):
        ledger = RunLedger.create(
            resolve_runs_dir(getattr(args, "runs_dir", None)),
            kind=_LEDGER_COMMANDS[args.command],
            argv=list(sys.argv[1:]),
            config=_ledger_config(args),
        )
        sinks.append(JsonlSink(path=ledger.events_path))
    if not sinks:
        sink = NullSink()
    elif len(sinks) == 1:
        sink = sinks[0]
    else:
        sink = TeeSink(sinks)
    enabled = bool(args.log_file or args.log_level or ledger is not None)
    instr = Instrumentation(
        sink=sink,
        enabled=enabled,
        run_id=ledger.run_id if ledger is not None else None,
        trace_dir=ledger.dir if ledger is not None else None,
        # Ledger runs record per-phase peak RSS gauges into the
        # manifest, so `repro runs show` surfaces out-of-core wins.
        track_rss=ledger is not None,
    )
    args._ledger = ledger
    return instr, ledger


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Community-based matrix reordering reproduction (ISPASS 2023)",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default=None,
        help="enable observability and stderr logging at this level",
    )
    parser.add_argument(
        "--log-file",
        default=None,
        metavar="PATH",
        help="append structured JSONL span/counter events to PATH",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress reporting"
    )
    parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="run-ledger root (default: $REPRO_RUNS_DIR or ./runs)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not write a runs/<run_id>/ ledger for this invocation",
    )
    subparsers = parser.add_subparsers(dest="command")

    corpus = subparsers.add_parser("corpus", help="inspect the input corpus")
    corpus.add_argument("action", choices=["list"])
    corpus.add_argument("--profile", default="full", choices=PROFILES)
    corpus.set_defaults(handler=_cmd_corpus)

    export = subparsers.add_parser("export", help="write a corpus matrix as MatrixMarket")
    export.add_argument("matrix")
    export.add_argument("path")
    export.set_defaults(handler=_cmd_export)

    metrics = subparsers.add_parser("metrics", help="structure metrics of a matrix")
    metrics.add_argument("matrix")
    metrics.add_argument("--profile", default="full", choices=PROFILES)
    metrics.set_defaults(handler=_cmd_metrics)

    evaluate = subparsers.add_parser("evaluate", help="model one reordered kernel run")
    evaluate.add_argument("matrix")
    evaluate.add_argument("--technique", default="rabbit++", choices=available_techniques())
    evaluate.add_argument("--kernel", default="spmv-csr")
    evaluate.add_argument("--policy", default="lru", choices=POLICIES)
    evaluate.add_argument("--profile", default="full", choices=PROFILES)
    evaluate.set_defaults(handler=_cmd_evaluate)

    experiment = subparsers.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument(
        "name", choices=sorted(DRIVERS) + sorted(ABLATIONS) + ["all"]
    )
    experiment.add_argument("--profile", default="full", choices=PROFILES)
    experiment.add_argument(
        "--figure",
        action="store_true",
        help="also render an ASCII bar chart over the first numeric column",
    )
    _add_sweep_flags(experiment)
    experiment.set_defaults(handler=_cmd_experiment)

    run_all = subparsers.add_parser(
        "run-all", help="regenerate every paper artifact (all drivers)"
    )
    run_all.add_argument("--profile", default="full", choices=PROFILES)
    run_all.add_argument(
        "--figure",
        action="store_true",
        help="also render an ASCII bar chart over the first numeric column",
    )
    _add_sweep_flags(run_all)
    run_all.set_defaults(handler=_cmd_run_all)

    doctor = subparsers.add_parser(
        "doctor", help="verify result-store integrity (CI guard: exits 1 on damage)"
    )
    doctor.add_argument(
        "--cache-dir",
        default=None,
        help="store root (default: $REPRO_CACHE_DIR or ./.repro_cache); "
        "with --store, the serve store root to scan instead",
    )
    doctor.add_argument(
        "--store",
        action="store_true",
        help="scan the serve tier's store (default root: "
        "$REPRO_SERVE_STORE or <cache>/serve-store) instead of the runner's",
    )
    doctor.add_argument(
        "--quarantine",
        action="store_true",
        help="move damaged/legacy entries to <root>/quarantine/ instead of "
        "only reporting them",
    )
    doctor.set_defaults(handler=_cmd_doctor)

    profile = subparsers.add_parser(
        "profile",
        help="per-stage time/traffic breakdown of one uncached pipeline run",
    )
    profile.add_argument("matrix")
    profile.add_argument("--technique", default="rabbit++", choices=available_techniques())
    profile.add_argument("--kernel", default="spmv-csr")
    profile.add_argument("--policy", default="lru", choices=POLICIES)
    profile.add_argument("--profile", default="full", choices=PROFILES)
    profile.set_defaults(handler=_cmd_profile)

    cache_stats = subparsers.add_parser(
        "cache-stats", help="report the result store's entries and hit ratio"
    )
    cache_stats.add_argument(
        "--cache-dir",
        default=None,
        help="store root (default: $REPRO_CACHE_DIR or ./.repro_cache)",
    )
    cache_stats.set_defaults(handler=_cmd_cache_stats)

    bench_reorder = subparsers.add_parser(
        "bench-reorder",
        help="scale-out reordering benchmark: one end-to-end pass on a large "
        "R-MAT, reporting nodes/s, digests and peak RSS per phase",
    )
    bench_reorder.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the BENCH_reorder.json payload to PATH",
    )
    bench_reorder.add_argument(
        "--scale",
        type=int,
        default=SCALE_GRAPH["scale"],
        metavar="N",
        help=f"R-MAT of 2^N nodes (default {SCALE_GRAPH['scale']})",
    )
    bench_reorder.add_argument(
        "--edge-factor",
        type=int,
        default=SCALE_GRAPH["edge_factor"],
        help=f"R-MAT edge factor (default {SCALE_GRAPH['edge_factor']})",
    )
    bench_reorder.add_argument(
        "--seed",
        type=int,
        default=SCALE_GRAPH["seed"],
        help=f"R-MAT seed (default {SCALE_GRAPH['seed']})",
    )
    bench_reorder.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count for sharded detection and the boba anchor scan (default 4)",
    )
    bench_reorder.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sharded passes "
        "(default 1; never changes any permutation)",
    )
    bench_reorder.add_argument(
        "--no-memmap",
        action="store_true",
        help="build the matrix in RAM instead of loading it through the "
        "memmap matrix cache",
    )
    bench_reorder.set_defaults(handler=_cmd_bench_reorder)

    trace = subparsers.add_parser(
        "trace",
        help="render one run's stitched cross-process span tree",
    )
    trace.add_argument("run_id", help="run id (or unique prefix) from runs/")
    trace.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="also export Chrome trace-event JSON (load in Perfetto or "
        "chrome://tracing)",
    )
    trace.set_defaults(handler=_cmd_trace)

    runs = subparsers.add_parser(
        "runs", help="browse the run ledger (runs/<run_id>/manifest.json)"
    )
    runs.add_argument("action", choices=["list", "show"])
    runs.add_argument(
        "run_id", nargs="?", default=None, help="run id for 'show' (or unique prefix)"
    )
    runs.set_defaults(handler=_cmd_runs)

    serve = subparsers.add_parser(
        "serve",
        help="run the reordering-as-a-service HTTP endpoint",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port to bind (0 picks a free port; default: 8787)",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port number to PATH once listening "
        "(lets callers use --port 0 without a port race)",
    )
    serve.add_argument("--profile", default="bench", choices=PROFILES)
    serve.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="permutation store root (default: $REPRO_SERVE_STORE or "
        "<cache>/serve-store)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request wall-clock budget (requests may "
        "override with deadline_seconds; over budget returns 504)",
    )
    serve.add_argument(
        "--iterations",
        type=int,
        default=100,
        metavar="N",
        help="default amortization horizon for technique=auto "
        "(default: 100 kernel iterations)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        metavar="N",
        help="admission control: max concurrent reorder computations "
        "(store hits and /v1/recommend are never gated; default: 4)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=8,
        metavar="N",
        help="admission control: max requests waiting for a compute slot; "
        "beyond this, requests are shed with 429 + Retry-After (default: 8)",
    )
    serve.add_argument(
        "--queue-timeout",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="max time a queued request waits for a compute slot before "
        "being shed with 429 (default: 2.0)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGTERM: max time to finish in-flight requests before "
        "shutting down anyway (default: 10)",
    )
    serve.add_argument(
        "--breaker-min-failures",
        type=int,
        default=4,
        metavar="N",
        help="compute/store circuit breakers: failures in the rolling "
        "window before a breaker may open (default: 4)",
    )
    serve.add_argument(
        "--breaker-recovery",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="circuit breakers: open duration before half-open probes "
        "test recovery (default: 2.0)",
    )
    serve.set_defaults(handler=_cmd_serve)

    serve_bench = subparsers.add_parser(
        "serve-bench",
        help="load-test a serve endpoint with a zipf-skewed trace",
    )
    serve_bench.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="serve endpoint to target (default: spawn a private "
        "`repro serve --port 0` for the duration of the bench)",
    )
    serve_bench.add_argument("--profile", default="test", choices=PROFILES)
    serve_bench.add_argument(
        "--requests", type=int, default=60, metavar="N", help="trace length"
    )
    serve_bench.add_argument(
        "--concurrency", type=int, default=4, metavar="N", help="client threads"
    )
    serve_bench.add_argument(
        "--skew",
        type=float,
        default=1.1,
        help="zipf exponent for matrix popularity (0 = uniform)",
    )
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument(
        "--technique", default="rabbit++", choices=available_techniques() + ["auto"]
    )
    serve_bench.add_argument("--kernel", default="spmv-csr")
    serve_bench.add_argument("--policy", default="lru", choices=POLICIES)
    serve_bench.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="store root for a spawned server (fresh temp dir by default "
        "keeps the first touches honest misses)",
    )
    serve_bench.add_argument(
        "--json",
        default="BENCH_serve.json",
        metavar="PATH",
        help="write the bench payload to PATH (default: BENCH_serve.json)",
    )
    serve_bench.add_argument(
        "--min-hit-rate",
        type=float,
        default=None,
        metavar="FRACTION",
        help="exit 1 unless the store hit rate reaches FRACTION (CI gate)",
    )
    serve_bench.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="per-request client timeout",
    )
    serve_bench.add_argument(
        "--overload",
        action="store_true",
        help="overload mode: spawn a small-admission server, drive it at "
        "--offered-factor x compute capacity, and report goodput / shed "
        "rate / accepted p99 (spawns its own servers; --url is rejected)",
    )
    serve_bench.add_argument(
        "--offered-factor",
        type=float,
        default=6.0,
        metavar="X",
        help="overload: offered load as a multiple of compute capacity "
        "(client threads = X * --max-inflight; default: 6)",
    )
    serve_bench.add_argument(
        "--max-inflight",
        type=int,
        default=1,
        metavar="N",
        help="overload: compute slots on the spawned server; keep at or "
        "below the physical core count, extra slots just time-slice and "
        "inflate accepted latency (default: 1)",
    )
    serve_bench.add_argument(
        "--max-queue",
        type=int,
        default=2,
        metavar="N",
        help="overload: admission queue depth on the spawned server "
        "(default: 2)",
    )
    serve_bench.add_argument(
        "--min-goodput",
        type=float,
        default=None,
        metavar="RPS",
        help="overload gate: exit 1 unless accepted requests/s reaches "
        "RPS (CI uses this)",
    )
    serve_bench.set_defaults(handler=_cmd_serve_bench)

    predict_validate = subparsers.add_parser(
        "predict-validate",
        help="fit the effectiveness predictor and gate on rank correlation",
    )
    predict_validate.add_argument("--profile", default="test", choices=PROFILES)
    predict_validate.add_argument("--kernel", default="spmv-csr")
    predict_validate.add_argument(
        "--min-spearman",
        type=float,
        default=None,
        metavar="RHO",
        help="exit 1 unless the calibration Spearman reaches RHO "
        "(default: the package floor, 0.8)",
    )
    predict_validate.add_argument(
        "--cache-dir",
        default=None,
        help="memo directory (default: $REPRO_CACHE_DIR or ./.repro_cache)",
    )
    predict_validate.add_argument(
        "--json", default=None, metavar="PATH", help="write the validation payload to PATH"
    )
    predict_validate.set_defaults(handler=_cmd_predict_validate)

    version = subparsers.add_parser("version", help="print the package version")
    version.set_defaults(handler=_cmd_version)

    techniques = subparsers.add_parser("techniques", help="list reordering techniques")
    techniques.set_defaults(handler=_cmd_techniques)
    return parser


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """Parallelism + resilience flags shared by experiment/run-all."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="precompute pipeline cells in N worker processes sharing "
        "the memo directory (default: 1, fully sequential)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry transiently-failed cells up to N times with "
        "exponential backoff (default: 0, fail on first error; "
        "needs --jobs > 1)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; a cell over budget raises "
        "CellTimeoutError and is retried like any transient failure "
        "(needs --jobs > 1)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="record failed cells/drivers in a failure report and finish "
        "the sweep with partial results instead of aborting "
        "(exit code 1 if anything failed permanently)",
    )


def _cmd_corpus(args: argparse.Namespace) -> int:
    records = selection_report(args.profile)
    rows = [
        [r.name, r.category, r.n_nodes, r.nnz, f"{r.avg_degree:.2f}",
         "yes" if r.selected else f"no ({r.reason})"]
        for r in records
    ]
    print(render_table(["matrix", "category", "nodes", "nnz", "avg_deg", "selected"], rows))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    write_matrix_market(matrix, args.path, comment=f"repro corpus entry {args.matrix}")
    print(f"wrote {args.matrix} ({matrix.shape}, nnz={matrix.nnz}) to {args.path}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(args.profile)
    metrics = runner.matrix_metrics(args.matrix)
    for key, value in sorted(metrics.to_json().items()):
        print(f"{key:32s} {value}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(args.profile)
    record = runner.run(
        args.matrix, args.technique, kernel=args.kernel, policy=args.policy
    )
    for key, value in sorted(record.to_json().items()):
        print(f"{key:24s} {value}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = list(DRIVERS) if args.name == "all" else [args.name]
    runner = ExperimentRunner(args.profile)
    ledger = args._ledger
    if ledger is not None:
        ledger.record(
            "corpus_profile",
            {
                "profile": args.profile,
                "experiments": names,
                "cache_dir": runner.cache_dir,
            },
        )

    def print_report(report) -> None:
        print(report.to_text())
        if args.figure:
            column = _first_numeric_column(report.rows)
            if column is not None:
                print()
                print(report.to_figure(value_column=column))
        print()

    # The whole sweep runs under one root span: worker processes root
    # their spans beneath it (TraceContext captures its id at pool
    # construction), so `repro trace <run_id>` shows every cell span
    # parented under this experiment span.
    with get_obs().span("experiment", experiment=args.name, profile=args.profile):
        try:
            failures = run_sweep(
                names,
                runner,
                print_report,
                jobs=args.jobs,
                retry=RetryPolicy.from_retries(args.retries),
                cell_timeout=args.cell_timeout,
                keep_going=args.keep_going,
                progress=not args.quiet,
            )
        except SweepArgumentError as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        except SweepFailure as exc:
            # A cell failed permanently in the precompute: report it as
            # --keep-going does.  A driver's own exception propagates.
            print(exc.report.summary_text(), file=sys.stderr)
            if ledger is not None:
                ledger.record("failures", exc.report.to_json())
            return 1
        # Keyed on the explicit log flags, not obs.enabled: the run ledger
        # enables instrumentation for every sweep, but the stdout timing
        # dump should stay opt-in.
        if (args.log_level or args.log_file) and not args.quiet:
            print("== where the time went ==")
            print(timing_summary())
    if args.keep_going:
        print(failures.summary_text(), file=sys.stderr if failures else sys.stdout)
        if ledger is not None and failures:
            ledger.record("failures", failures.to_json())
    return 1 if failures else 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    """``repro run-all`` — every paper-artifact driver, optionally parallel."""
    args.name = "all"
    return _cmd_experiment(args)


def _first_numeric_column(rows) -> Optional[int]:
    if not rows:
        return None
    for column, value in enumerate(rows[0]):
        if column > 0 and isinstance(value, float):
            return column
    return None


def _cmd_profile(args: argparse.Namespace) -> int:
    """One uncached pipeline run under a dedicated instrumentation."""
    instr = Instrumentation(enabled=True, track_rss=True)
    with obs.using(instr):
        runner = ExperimentRunner(args.profile, use_cache=False)
        with instr.span("profile") as wall:
            record = runner.run(
                args.matrix, args.technique, kernel=args.kernel, policy=args.policy
            )
    totals = instr.span_totals()
    totals.pop("profile", None)
    print(
        f"== profile {args.matrix} "
        f"(technique={args.technique}, kernel={args.kernel}, policy={args.policy}) =="
    )
    print(format_span_totals(totals, total_seconds=wall.seconds))
    print()
    histograms = instr.counters.histograms()
    histograms.pop("profile", None)
    if histograms:
        print("latency percentiles (per phase):")
        print(format_histograms(histograms))
        print()
    _print_reorder_breakdown(totals)
    print(f"wall seconds        {wall.seconds:.4f}")
    print("traffic breakdown:")
    for key in (
        "traffic_bytes",
        "compulsory_bytes",
        "normalized_traffic",
        "normalized_runtime",
        "hit_rate",
        "dead_line_fraction",
        "accesses",
        "misses",
        "reorder_seconds",
    ):
        print(f"  {key:24s} {getattr(record, key)}")
    return 0


def _print_reorder_breakdown(totals) -> None:
    """Reorder-phase split of one profiled run, from the span totals.

    The ``reorder`` span wraps the whole permutation computation; the
    nested ``reorder-detect`` span covers community detection for the
    detector-backed techniques (rabbit/rabbit++/louvain), so the
    difference is ordering/assembly work (dendrogram DFS, grouping,
    permutation inversion).
    """
    reorder = totals.get("reorder")
    if reorder is None:
        return
    detect = totals.get("reorder-detect")
    print("reorder phase breakdown:")
    print(f"  {'total reorder':24s} {reorder.seconds:.4f}s")
    if detect is not None:
        print(f"  {'community detection':24s} {detect.seconds:.4f}s")
        print(
            f"  {'ordering/assembly':24s} "
            f"{max(reorder.seconds - detect.seconds, 0.0):.4f}s"
        )
    permute = totals.get("permute")
    if permute is not None:
        print(f"  {'permutation apply':24s} {permute.seconds:.4f}s")
    print()


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.store import KINDS, ResultStore

    cache_dir = resolve_cache_dir(args.cache_dir)
    stats = ResultStore(cache_dir).stats()
    rows = [[kind, stats[kind]["entries"], stats[kind]["bytes"]] for kind in KINDS]
    rows.append(["total", sum(row[1] for row in rows), sum(row[2] for row in rows)])
    print(f"cache dir: {cache_dir}" + ("" if os.path.isdir(cache_dir) else " (missing)"))
    print(render_table(["kind", "entries", "bytes"], rows))
    _print_quarantine_stats(cache_dir)

    counters = get_obs().counters.snapshot()["counters"]
    hits = sum(v for k, v in counters.items() if k.startswith("store.") and k.endswith(".hit"))
    misses = sum(v for k, v in counters.items() if k.startswith("store.") and k.endswith(".miss"))
    print()
    if hits + misses:
        print(
            f"this process: {int(hits)} store hits, {int(misses)} misses "
            f"(hit ratio {hits / (hits + misses):.1%})"
        )
    else:
        print("this process: no store lookups recorded (enable with --log-level/--log-file)")
    return 0


def _print_quarantine_stats(cache_dir: str) -> None:
    """Quarantine subdirectory contents: count, bytes, newest entry.

    Quarantined files are damaged/legacy store entries ``repro doctor
    --quarantine`` (or a failed read) moved out of the store's read
    path; surfacing them here keeps silent data loss visible.
    """
    from repro.resilience import quarantine_path

    qdir = quarantine_path(cache_dir)
    entries = []
    if os.path.isdir(qdir):
        for name in sorted(os.listdir(qdir)):
            path = os.path.join(qdir, name)
            if os.path.isfile(path):
                entries.append((name, os.path.getsize(path), os.path.getmtime(path)))
    print()
    if not entries:
        print("quarantine: empty")
        return
    total_bytes = sum(size for _, size, _ in entries)
    newest = max(entries, key=lambda e: e[2])
    import datetime

    stamp = datetime.datetime.fromtimestamp(newest[2]).strftime("%Y-%m-%d %H:%M:%S")
    print(
        f"quarantine: {len(entries)} file(s), {total_bytes} bytes "
        f"(newest: {newest[0]}, {stamp})"
    )
    print("  inspect with: repro doctor; clear by deleting the quarantine dir")


def _cmd_doctor(args: argparse.Namespace) -> int:
    """``repro doctor`` — result-store integrity scan (CI guard).

    Exits 0 when every entry verifies; 1 when any entry is damaged
    (bad JSON, checksum or schema mismatch) or predates cache
    versioning.  Already-quarantined files are reported but don't fail
    the scan — they are out of the store's read path.

    The scan covers the runner's store (``$REPRO_CACHE_DIR``); with
    ``--store`` it covers the serve tier's root instead, the one the
    server scrubs with quarantine at startup.
    """
    from repro.store import ResultStore, resolve_store_dir

    resolve = resolve_store_dir if args.store else resolve_cache_dir
    store = ResultStore(resolve(args.cache_dir))
    scan = store.scan(quarantine=args.quarantine)
    print(f"store: {store.root}" + ("" if os.path.isdir(store.root) else " (missing)"))
    rows = [
        ["ok", len(scan.ok)],
        ["legacy (unversioned)", len(scan.legacy)],
        ["damaged", len(scan.damaged)],
        ["quarantined", len(scan.quarantined)],
    ]
    print(render_table(["status", "entries"], rows))
    for name, reason in scan.damaged:
        print(f"DAMAGED {name}: {reason}")
    for name in scan.legacy:
        print(f"LEGACY  {name}: missing cache envelope (will be quarantined on read)")
    for name in scan.quarantined:
        print(f"QUARANTINED {name}")
    if args.quarantine:
        moved = len(scan.damaged) + len(scan.legacy)
        if moved:
            print(
                f"quarantined {moved} entries to "
                f"{os.path.join(store.root, 'quarantine')}"
            )
    if scan.healthy:
        print("store integrity: OK")
        return 0
    print(
        f"store integrity: {len(scan.damaged)} damaged, "
        f"{len(scan.legacy)} legacy entries",
        file=sys.stderr,
    )
    return 1


def _cmd_bench_reorder(args: argparse.Namespace) -> int:
    """``repro bench-reorder`` — the scale-out reordering benchmark."""
    from repro.reorder.benchreorder import run_scale_bench

    payload = run_scale_bench(
        scale=args.scale,
        edge_factor=args.edge_factor,
        seed=args.seed,
        n_shards=args.shards,
        jobs=args.jobs,
        use_memmap=not args.no_memmap,
    )
    workload = payload["workload"]
    print(
        f"scale workload: 2^{workload['scale']} = {workload['n_nodes']} nodes, "
        f"{workload['nnz']} nnz ({workload['undirected_nnz']} symmetric), "
        f"{'memmap' if workload['memmap'] else 'in-RAM'}, "
        f"setup {workload['setup_seconds']:.1f}s"
    )
    detection = payload["detection"]
    rows = [
        [
            mode,
            f"{stats['seconds']:.3f}",
            f"{stats['nodes_per_s']:,.0f}",
            f"{stats['modularity']:.4f}",
            f"{stats['n_communities']}",
        ]
        for mode, stats in (("single", detection["single"]), ("sharded", detection["sharded"]))
    ]
    print(render_table(["detection", "seconds", "nodes/s", "modularity", "communities"], rows))
    print(
        f"sharded detection ({detection['sharded']['n_shards']} shards, "
        f"{detection['sharded']['jobs']} jobs) is "
        f"{detection['sharded_speedup']:.2f}x single-shard"
    )
    rows = [
        [r["name"], f"{r['seconds']:.3f}", f"{r['nodes_per_s']:,.0f}",
         r["permutation_sha256"][:12]]
        for r in payload["techniques"]
    ]
    print(render_table(["technique", "seconds", "nodes/s", "perm sha256"], rows))
    rss = payload["rss_peak_kb"]
    if rss:
        print(
            "peak RSS (KB): "
            + ", ".join(f"{phase}={value}" for phase, value in rss.items())
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace <run_id>`` — stitched cross-process span tree."""
    from repro.obs.tracefile import (
        build_span_tree,
        read_events,
        render_span_tree,
        to_chrome_trace,
    )

    runs_dir = resolve_runs_dir(args.runs_dir)
    run_dir = find_run_dir(runs_dir, args.run_id)
    if run_dir is None:
        print(
            f"repro: error: no run matching {args.run_id!r} under {runs_dir}",
            file=sys.stderr,
        )
        return 2
    result = read_events(run_dir)
    spans = result.spans()
    pids = sorted({e.get("pid") for e in spans if e.get("pid") is not None})
    print(
        f"run {os.path.basename(run_dir)}: {len(spans)} spans from "
        f"{len(result.files)} event file(s), {len(pids)} process(es)"
    )
    if result.total_bad_lines:
        print(
            f"warning: skipped {result.total_bad_lines} malformed line(s):",
            file=sys.stderr,
        )
        for path, bad in sorted(result.bad_lines.items()):
            if bad:
                print(f"  {os.path.basename(path)}: {bad}", file=sys.stderr)
    roots, orphans = build_span_tree(spans)
    if orphans:
        print(
            f"note: {orphans} span(s) reference a parent span that never "
            "flushed (shown as roots)"
        )
    print()
    print(render_span_tree(roots))
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(to_chrome_trace(spans), handle, indent=1, sort_keys=True)
        print(f"\nwrote Chrome trace-event JSON to {args.chrome} "
              "(open in Perfetto or chrome://tracing)")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    """``repro runs list|show`` — browse the run ledger."""
    runs_dir = resolve_runs_dir(args.runs_dir)
    if args.action == "list":
        manifests = list_runs(runs_dir)
        if not manifests:
            print(f"no runs under {runs_dir}")
            return 0
        rows = []
        for manifest in manifests:
            duration = manifest.get("duration_seconds")
            rows.append(
                [
                    manifest.get("run_id", "?"),
                    manifest.get("kind", "?"),
                    # Stale-aware: a crashed run's stub says "running"
                    # forever; render it as "stale" once its pid is gone.
                    effective_status(manifest),
                    manifest.get("started_at_iso", "-"),
                    "-" if duration is None else f"{float(duration):.1f}s",
                    "-"
                    if manifest.get("exit_code") is None
                    else str(manifest.get("exit_code")),
                ]
            )
        print(f"runs dir: {runs_dir}")
        print(render_table(["run_id", "kind", "status", "started", "duration", "exit"], rows))
        return 0
    if not args.run_id:
        print("repro: error: 'runs show' needs a run id", file=sys.stderr)
        return 2
    manifest = load_manifest(runs_dir, args.run_id)
    if manifest is None:
        print(
            f"repro: error: no run matching {args.run_id!r} under {runs_dir}",
            file=sys.stderr,
        )
        return 2
    manifest = dict(manifest)
    manifest["effective_status"] = effective_status(manifest)
    print(json.dumps(manifest, indent=1, sort_keys=True, default=str))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — the reordering-as-a-service HTTP endpoint."""
    import signal
    import threading

    from repro.serve.httpd import make_server
    from repro.serve.service import ReorderService, ServeConfig

    config = ServeConfig(
        profile=args.profile,
        store_dir=args.store_dir,
        default_deadline_seconds=args.deadline,
        default_iterations=args.iterations,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        breaker_min_failures=args.breaker_min_failures,
        breaker_recovery_seconds=args.breaker_recovery,
    )
    service = ReorderService(config)
    # Startup scrub: quarantine any crash-corrupted store entry before
    # the first request, so damage can never serve as a bad hit.
    scrub = service.store.scan(quarantine=True)
    if not scrub.healthy and not args.quiet:
        print(
            f"repro serve: startup scrub quarantined "
            f"{len(scrub.damaged) + len(scrub.legacy)} store entries",
            file=sys.stderr,
        )
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    if args.port_file:
        # Write-then-rename so pollers never read a partial number.
        tmp = f"{args.port_file}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(str(port))
        os.replace(tmp, args.port_file)
    ledger = getattr(args, "_ledger", None)
    if ledger is not None:
        ledger.record(
            "serve",
            {
                "host": host,
                "port": port,
                "profile": args.profile,
                "store": service.store.root,
            },
        )
    if not args.quiet:
        print(
            f"repro serve: listening on http://{host}:{port} "
            f"(profile={args.profile}, store={service.store.root})",
            file=sys.stderr,
        )

    drain_result: dict = {"clean": None}

    def _graceful(signum, frame):
        # Graceful drain. This handler runs on the main thread, where
        # serve_forever is paused — calling server.shutdown() here
        # would deadlock (it waits for the serve loop to acknowledge).
        # So: flag the drain (readiness flips to 503, new requests are
        # refused) and let a background thread wait out the in-flight
        # requests before shutting the listener down.
        if server.draining:
            return
        server.draining = True

        def _drain() -> None:
            drain_result["clean"] = server.drain(args.drain_timeout)

        threading.Thread(target=_drain, name="serve-drain", daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _graceful)
    try:
        with get_obs().span("serve-session", profile=args.profile):
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
    if ledger is not None:
        ledger.record("serve_stats", service.stats())
        if drain_result["clean"] is not None:
            ledger.record(
                "serve_drain",
                {
                    "clean": drain_result["clean"],
                    "deadline_seconds": args.drain_timeout,
                },
            )
        errors = service.recent_errors()
        if errors:
            # Every 500's error_id (echoed to the client) lands here,
            # so operators can join a client report to the traceback.
            ledger.record("serve_errors", errors)
    if not args.quiet and drain_result["clean"] is not None:
        state = "clean" if drain_result["clean"] else "timed out"
        print(f"repro serve: drain {state}; exiting", file=sys.stderr)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """``repro serve-bench`` — replay a zipf trace, write BENCH_serve.json."""
    from repro.serve.bench import run_bench

    if args.overload:
        return _serve_bench_overload(args)
    payload = run_bench(
        base_url=args.url,
        profile=args.profile,
        n_requests=args.requests,
        concurrency=args.concurrency,
        skew=args.skew,
        seed=args.seed,
        technique=args.technique,
        kernel=args.kernel,
        policy=args.policy,
        store_dir=args.store_dir,
        timeout=args.timeout,
    )
    client = payload["client"]

    def _fmt(value) -> str:
        return "-" if value is None else f"{float(value) * 1e3:.2f}ms"

    rows = [
        [
            name,
            client[name]["count"],
            _fmt(client[name]["p50"]),
            _fmt(client[name]["p99"]),
        ]
        for name in ("overall", "hit", "miss", "coalesced", "degraded")
    ]
    print(render_table(["class", "requests", "p50", "p99"], rows))
    hit_rate = payload["store_hit_rate"]
    speedup = payload["hit_speedup_p50"]
    print(f"store hit rate: {hit_rate:.1%}")
    if speedup is not None:
        print(f"hit-path p50 speedup over miss path: {speedup:.1f}x")
    server_speedup = payload["hit_speedup_p50_server"]
    if server_speedup is not None:
        print(f"server-side hit-path p50 speedup: {server_speedup:.1f}x")
    errors = payload["requests"]["errors"]
    if errors:
        print(f"errors by status: {errors}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    ledger = getattr(args, "_ledger", None)
    if ledger is not None:
        ledger.record("serve_bench", payload)
    if args.min_hit_rate is not None and hit_rate < args.min_hit_rate:
        print(
            f"serve-bench gate: FAIL (hit rate {hit_rate:.1%} < "
            f"{args.min_hit_rate:.1%})",
            file=sys.stderr,
        )
        return 1
    return 0


def _serve_bench_overload(args: argparse.Namespace) -> int:
    """``repro serve-bench --overload`` — shed-path load harness."""
    from repro.serve.bench import run_overload_bench

    if args.url:
        print(
            "repro: error: --overload spawns its own calibration and "
            "overload servers; --url is not supported",
            file=sys.stderr,
        )
        return 2
    payload = run_overload_bench(
        profile=args.profile,
        n_requests=args.requests,
        offered_factor=args.offered_factor,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        technique=args.technique,
        policy=args.policy,
        seed=args.seed,
        timeout=args.timeout,
    )
    over = payload["overload"]

    def _ms(value) -> str:
        return "-" if value is None else f"{float(value) * 1e3:.2f}ms"

    rows = [
        ["offered load", f"{over['offered_factor']:g}x capacity "
                         f"({over['requests']} requests)"],
        ["accepted", over["accepted"]],
        ["shed (429)", over["shed"]],
        ["errors", sum(over["errors"].values())],
        ["goodput", f"{over['goodput_rps']:.1f} req/s"],
        ["shed rate", f"{over['shed_rate']:.1%}"],
        ["accepted p99", _ms(over["accepted_p99"])],
        ["baseline p99", _ms(over["baseline_p99"])],
        ["p99 ratio", "-" if over["p99_ratio"] is None else f"{over['p99_ratio']:.2f}x"],
    ]
    print(render_table(["overload", "value"], rows))
    if over["errors"]:
        print(f"errors by class: {over['errors']}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    ledger = getattr(args, "_ledger", None)
    if ledger is not None:
        ledger.record("serve_bench_overload", payload)
    failed = False
    if over["errors"].get("500"):
        print(
            f"serve-bench overload gate: FAIL ({over['errors']['500']} "
            "HTTP 500s — overload must shed, never error)",
            file=sys.stderr,
        )
        failed = True
    if args.min_goodput is not None and (
        over["goodput_rps"] is None or over["goodput_rps"] < args.min_goodput
    ):
        print(
            f"serve-bench overload gate: FAIL (goodput "
            f"{over['goodput_rps']:.2f} req/s < {args.min_goodput:g})",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _cmd_predict_validate(args: argparse.Namespace) -> int:
    from repro.predict.validate import DEFAULT_MIN_SPEARMAN, fit_and_validate

    floor = args.min_spearman if args.min_spearman is not None else DEFAULT_MIN_SPEARMAN
    _, result = fit_and_validate(
        profile=args.profile,
        kernel=args.kernel,
        min_spearman=floor,
        cache_dir=args.cache_dir,
    )
    print(
        f"predictor: kernel={result.kernel} platform={result.platform} "
        f"({result.n_matrices} matrices, {result.n_cells} cells)"
    )
    print(f"spearman (calibration): {result.spearman_fit:.3f}")
    print(f"spearman (leave-one-matrix-out): {result.spearman_loo:.3f}")
    for technique, rho in sorted(result.per_technique.items()):
        print(f"  {technique}: {rho:.3f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_json(), handle, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    if not result.passed:
        print(
            f"predict-validate gate: FAIL (spearman {result.spearman_fit:.3f} "
            f"< {floor:.3f})",
            file=sys.stderr,
        )
        return 1
    print(f"predict-validate gate: PASS (floor {floor:.3f})")
    return 0


def _cmd_version(args: argparse.Namespace) -> int:
    try:
        from repro import __version__ as version
    except ImportError:  # pragma: no cover - fallback for odd installs
        from importlib.metadata import version as dist_version

        version = dist_version("repro")
    print(f"repro {version}")
    return 0


def _cmd_techniques(args: argparse.Namespace) -> int:
    for name in available_techniques():
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
