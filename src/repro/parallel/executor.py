"""Process-pool execution of pipeline cells against a shared result store.

The executor makes a whole experiment sweep multicore without touching
driver logic: it precomputes every planned cell in ``jobs`` worker
processes, each writing its result into the same content-addressed
store (:mod:`repro.store`) the sequential path uses (``os.replace``
makes those writes atomic, so workers race safely).  Afterwards the
drivers run unchanged in the parent and find every cell already
stored — which is also the core correctness invariant: the parallel
path must leave byte-identical ``perm/``, ``eval/`` and ``metrics/``
entries to the sequential path.

De-duplication happens *before* submission (:func:`dedupe_cells`), so
no two workers ever simulate the same store key; cells whose entry
already exists are skipped entirely.  Keying a cell generates its
matrix on the sweep's own runner, which the drivers then run on, so
the parent loads each planned matrix once.  Cells sharing
a ``(matrix, technique)`` pair are grouped into one worker task: the
group computes its permutation once and stores it, instead of two
workers racing to compute the same one (spans show reordering at ~50%
of pipeline time).

Resilience (:mod:`repro.resilience`): every cell runs under the
caller's :class:`~repro.resilience.RetryPolicy` and optional per-cell
wall-clock timeout.  Transient failures — worker death, timeouts,
injected :class:`~repro.errors.TransientError` — are retried with
exponential backoff (a broken pool is rebuilt for the retry round);
deterministic failures such as :class:`ValidationError` fail fast.  In
strict mode (the default) any permanent failure raises
:class:`~repro.errors.SweepFailure`; under ``keep_going`` it is
recorded in the stats' :class:`~repro.resilience.FailureReport` and the
sweep completes with partial results.  A retried group replays its
already-finished cells as store hits, so progress is never lost.  The
store is the only record of finished work: a sweep that was killed is
resumed by running it again against the same store, which skips every
cell whose entry exists.

Observability: each worker runs its cell under a private, enabled
:class:`Instrumentation` and ships its full counter snapshot
(counters, gauges, histograms) plus span totals back with the result;
the parent folds them in (:meth:`Instrumentation.merge_counter_snapshot`
/ :meth:`~Instrumentation.merge_span_totals`) so ``repro profile`` and
``repro cache-stats`` stay truthful under parallelism.  Counters add,
gauges merge max-wins, histograms merge exactly by bucket addition —
all order-independent folds, so parallel telemetry is deterministic
regardless of pool completion order.  Recovery actions tick the
``resilience.retries`` / ``resilience.cells_failed`` counters and the
``cell.attempts`` histogram.

Trace stitching: when the parent instrumentation is enabled, workers
inherit a :class:`TraceContext` — the parent's ``run_id``, its current
span id, and (when a run ledger is active) the run directory.  Each
worker roots its spans under the parent span id and appends its events
to ``events-w<pid>.jsonl`` in the run directory, so ``repro trace
<run_id>`` reassembles one logical span tree across every process.

Workers are spawned (not forked) so the path behaves identically on
Linux, macOS and Windows and never inherits parent threads mid-state.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CorpusError, SweepFailure, ValidationError
from repro.experiments.runner import ExperimentRunner
from repro.gpu.specs import PlatformSpec
from repro.obs import (
    Clock,
    Instrumentation,
    JsonlSink,
    ProgressReporter,
    get_obs,
    logger,
    using,
)
from repro.parallel.cells import METRICS, Cell, dedupe_cells
from repro.resilience import (
    CellFailure,
    FailureReport,
    RetryPolicy,
    cell_deadline,
    fault_point,
    is_transient,
)


@dataclass(frozen=True)
class RunnerConfig:
    """Picklable construction recipe for an :class:`ExperimentRunner`.

    Workers rebuild their runner from this, so parent and workers agree
    on profile, store directory, schedule and platform — and therefore
    on every store key.
    """

    profile: str
    cache_dir: str
    use_cache: bool = True
    schedule: str = "sequential"
    platform: Optional[PlatformSpec] = None

    @classmethod
    def from_runner(cls, runner: ExperimentRunner) -> "RunnerConfig":
        return cls(
            profile=runner.profile,
            cache_dir=runner.cache_dir,
            use_cache=runner.use_cache,
            schedule=runner.schedule,
            platform=runner.platform,
        )

    def make_runner(self) -> ExperimentRunner:
        return ExperimentRunner(
            profile=self.profile,
            platform=self.platform,
            cache_dir=self.cache_dir,
            use_cache=self.use_cache,
            schedule=self.schedule,
        )


@dataclass(frozen=True)
class TraceContext:
    """Picklable trace inheritance shipped to workers via ``initargs``.

    ``run_id`` keeps every process's events in one logical trace;
    ``parent_span_id`` is the parent's span open at pool construction
    (the experiment root), so worker spans stitch under it;
    ``events_dir`` is the run-ledger directory workers append their
    ``events-w<pid>.jsonl`` to (``None`` when no ledger is active).
    """

    run_id: str
    parent_span_id: Optional[str] = None
    events_dir: Optional[str] = None

    @classmethod
    def from_obs(cls, instr: Instrumentation) -> Optional["TraceContext"]:
        if not instr.enabled:
            return None
        return cls(
            run_id=instr.run_id,
            parent_span_id=instr.current_span_id(),
            events_dir=instr.trace_dir,
        )


@dataclass
class ParallelStats:
    """What one :func:`execute_cells` call did."""

    planned: int = 0
    executed: int = 0
    skipped: int = 0
    jobs: int = 1
    retried: int = 0
    failed: int = 0
    failures: FailureReport = field(default_factory=FailureReport)


#: Per-worker-process state: the shared runner (so graphs and
#: permutations memoize across the cells one worker handles), the
#: injectable clock for deterministic-timing runs, and the per-cell
#: wall-clock timeout.
_WORKER: Dict[str, object] = {}


def _init_worker(
    config: RunnerConfig,
    clock: Optional[Clock],
    cell_timeout: Optional[float] = None,
    trace: Optional[TraceContext] = None,
) -> None:
    _WORKER["runner"] = config.make_runner()
    _WORKER["clock"] = clock
    _WORKER["timeout"] = cell_timeout
    _WORKER["trace"] = trace


def _execute_one(runner: ExperimentRunner, cell: Cell) -> None:
    if cell.kind == METRICS:
        runner.matrix_metrics(cell.matrix)
    else:
        runner.run(
            cell.matrix,
            cell.technique,
            kernel=cell.kernel,
            policy=cell.policy,
            mask=cell.mask,
        )


def _attempt_cell(
    runner: ExperimentRunner, cell: Cell, cell_timeout: Optional[float]
) -> None:
    """One attempt at one cell: the fault site runs inside the deadline
    so injected delays can exercise the timeout path.

    The whole attempt runs under a ``cell`` span — the per-cell
    wall-time histogram and the unit of the stitched trace.  This is
    the single site both the in-process (``jobs=1``) and pool paths go
    through, so their telemetry shapes agree.
    """
    label = cell.label()
    with get_obs().span("cell", cell=label):
        with cell_deadline(cell_timeout, label):
            fault_point("cell.execute", label=label)
            _execute_one(runner, cell)


class _CellFailure(Exception):
    """Pickles a failing cell's identity across the process boundary."""

    def __init__(
        self,
        label: str,
        detail: str,
        error_type: str = "",
        transient: bool = False,
        tb: str = "",
    ):
        super().__init__(label, detail, error_type, transient, tb)
        self.label = label
        self.detail = detail
        self.error_type = error_type
        self.transient = transient
        self.tb = tb


def _group_key(cell: Cell) -> Tuple[str, str]:
    # Cells sharing (matrix, technique) share one permutation, computed
    # once per group; metrics cells (technique == "") group per matrix.
    return (cell.matrix, cell.technique)


def _group_cells(cells: List[Cell]) -> List[Tuple[Cell, ...]]:
    groups: Dict[Tuple[str, str], List[Cell]] = {}
    for cell in cells:
        groups.setdefault(_group_key(cell), []).append(cell)
    return [tuple(group) for group in groups.values()]


def _run_group(
    cells: Tuple[Cell, ...],
    marker: str,
) -> Tuple[List[str], Dict[str, Dict[str, object]], Dict[str, Tuple[int, float]]]:
    """Worker entry point: simulate one cell group into the shared store.

    Returns the completed cell labels plus the full counter snapshot
    (counters, gauges, histograms) and span-total deltas the group
    caused, measured by a fresh per-group instrumentation.  When a
    :class:`TraceContext` was inherited, that instrumentation shares
    the parent's ``run_id``, roots its spans under the parent's span
    id, and appends events to ``events-w<pid>.jsonl`` in the run
    directory — one logical trace across processes.  A failing cell
    raises :class:`_CellFailure` carrying its label and transient
    classification; on a retried group the already-memoized cells
    replay as cache hits.

    The file ``marker`` exists while the group runs: a worker that dies
    leaves it behind, which tells the parent this group was started
    when the pool broke (see :func:`_execute_pool`).
    """
    runner: ExperimentRunner = _WORKER["runner"]  # type: ignore[assignment]
    timeout: Optional[float] = _WORKER.get("timeout")  # type: ignore[assignment]
    trace: Optional[TraceContext] = _WORKER.get("trace")  # type: ignore[assignment]
    sink = None
    if trace is not None and trace.events_dir:
        sink = JsonlSink(
            path=os.path.join(trace.events_dir, f"events-w{os.getpid()}.jsonl")
        )
    instr = Instrumentation(
        sink=sink,
        clock=_WORKER.get("clock"),  # type: ignore[arg-type]
        enabled=True,
        run_id=trace.run_id if trace is not None else None,
        parent_span_id=trace.parent_span_id if trace is not None else None,
    )
    instr.gauge("parallel.group_cells", len(cells))
    done: List[str] = []
    open(marker, "w").close()
    try:
        with using(instr):
            for cell in cells:
                try:
                    _attempt_cell(runner, cell, timeout)
                except Exception as exc:
                    raise _CellFailure(
                        cell.label(),
                        str(exc),
                        error_type=type(exc).__name__,
                        transient=is_transient(exc),
                        tb=traceback.format_exc(),
                    ) from exc
                # One attempt per cell in pool mode (retries resubmit
                # the group), mirroring the jobs=1 path's histogram.
                instr.observe("cell.attempts", 1)
                done.append(cell.label())
    finally:
        instr.close()
        os.remove(marker)
    snapshot = instr.counters.snapshot()
    spans = {
        name: (total.calls, total.seconds)
        for name, total in instr.span_totals().items()
    }
    return done, snapshot, spans


def _is_stored(runner: ExperimentRunner, cell: Cell) -> bool:
    """Whether the cell's store entry exists.  A matrix that cannot be
    loaded to key it counts as not stored, so its cell fails where it
    runs, under its own label."""
    try:
        if cell.kind == METRICS:
            path = runner.metrics_cache_path(cell.matrix)
        else:
            path = runner.run_cache_path(
                cell.matrix, cell.technique, cell.kernel, cell.policy, cell.mask
            )
    except CorpusError:
        return False
    return os.path.exists(path)


def _merge_into(obs: Instrumentation, instr: Instrumentation) -> None:
    """Fold a local instrumentation's counters and span totals into ``obs``."""
    obs.merge_counter_snapshot(instr.counters.snapshot())
    obs.merge_span_totals(
        {n: (t.calls, t.seconds) for n, t in instr.span_totals().items()}
    )


def _run_cell_with_retry(
    runner: ExperimentRunner,
    cell: Cell,
    retry: RetryPolicy,
    cell_timeout: Optional[float],
    sleep: Callable[[float], None],
) -> Optional[CellFailure]:
    """In-process retry loop; ``None`` on success, else the failure."""
    obs = get_obs()
    label = cell.label()
    for attempt in range(1, retry.max_attempts + 1):
        try:
            _attempt_cell(runner, cell, cell_timeout)
            obs.observe("cell.attempts", attempt)
            return None
        except Exception as exc:
            transient = is_transient(exc)
            if transient and attempt < retry.max_attempts:
                obs.counter("resilience.retries")
                logger.warning(
                    "cell %s failed transiently (%s: %s); retrying (%d/%d)",
                    label,
                    type(exc).__name__,
                    exc,
                    attempt,
                    retry.max_attempts - 1,
                )
                sleep(retry.delay(attempt))
                continue
            return CellFailure(
                label=label,
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=attempt,
                transient=transient,
                traceback=traceback.format_exc(),
            )
    raise AssertionError("unreachable")  # pragma: no cover


def execute_cells(
    cells: List[Cell],
    runner: ExperimentRunner,
    jobs: int,
    worker_clock: Optional[Clock] = None,
    progress: Optional[ProgressReporter] = None,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    keep_going: bool = False,
    sleep: Callable[[float], None] = time.sleep,
) -> ParallelStats:
    """Precompute ``cells`` into ``runner``'s store with ``jobs`` workers.

    ``runner`` keys the cells, so the matrices it generates to key them
    stay loaded for the drivers that run on it afterwards; workers
    build runners of their own from its :class:`RunnerConfig`.
    ``jobs=1`` executes the cells in-process (no pool, no spawning) on
    a runner built the way a worker builds one, which makes it the
    reference the pool is tested against; a ``--jobs 1`` sweep never
    calls this.  ``worker_clock`` injects a deterministic clock into
    the workers and the parent's keying pass (tests use a
    :class:`~repro.obs.FakeClock` so span durations, and the reordering
    seconds of ``time`` entries, are the same across process counts).

    Failure handling: transient failures retry up to
    ``retry.max_attempts`` total attempts (default: 1, i.e. no
    retries); a permanent failure raises :class:`SweepFailure` naming
    the cell — or, with ``keep_going=True``, is recorded in
    ``stats.failures`` while the rest of the sweep completes.  Either
    way no cell is ever silently dropped.  ``sleep`` is injectable so
    tests assert backoff without waiting.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    retry = retry if retry is not None else RetryPolicy()
    cells = dedupe_cells(cells)
    obs = get_obs()
    stats = ParallelStats(planned=len(cells), jobs=jobs)

    if not runner.use_cache:
        # Workers could not share results through the store; running the
        # pool would simulate everything and throw it away.
        logger.warning(
            "parallel precompute skipped: memoization is disabled "
            "(use_cache=False), cells will compute in-process on demand"
        )
        return stats

    pending = []
    # Keying a cell generates its matrix.  Those loads are measured
    # like in-process cells, so jobs=1 and the pool record the same
    # spans.
    with using(Instrumentation(clock=worker_clock, enabled=True)) as instr:
        for cell in cells:
            if _is_stored(runner, cell):
                stats.skipped += 1
            else:
                pending.append(cell)
    _merge_into(obs, instr)
    obs.counter("parallel.cells.planned", stats.planned)
    obs.counter("parallel.cells.skipped", stats.skipped)
    if not pending:
        return stats

    if jobs == 1:
        worker = RunnerConfig.from_runner(runner).make_runner()
        with using(Instrumentation(clock=worker_clock, enabled=True)) as instr:
            for cell in pending:
                failure = _run_cell_with_retry(
                    worker, cell, retry, cell_timeout, sleep
                )
                if failure is not None:
                    stats.failed += 1
                    stats.failures.add(failure)
                    get_obs().counter("resilience.cells_failed")
                    logger.error(
                        "cell %s failed permanently: %s: %s",
                        failure.label,
                        failure.error_type,
                        failure.message,
                    )
                    if not keep_going:
                        break
                    continue
                stats.executed += 1
                if progress is not None:
                    progress.update(cell.label())
        _merge_into(obs, instr)
    else:
        _execute_pool(
            pending,
            runner,
            jobs,
            worker_clock,
            progress,
            retry,
            cell_timeout,
            keep_going,
            sleep,
            stats,
        )
    obs.counter("parallel.cells.executed", stats.executed)
    logger.info(
        "parallel precompute done: %d executed, %d already stored, "
        "%d retried, %d failed, %d planned",
        stats.executed,
        stats.skipped,
        stats.retried,
        stats.failed,
        stats.planned,
    )
    _finish(stats, keep_going)
    return stats


def _finish(stats: ParallelStats, keep_going: bool) -> None:
    """Common sweep epilogue: raise or summarize the failures."""
    if not stats.failures:
        return
    if not keep_going:
        first = stats.failures.failures[0]
        raise SweepFailure(
            f"worker failed on cell {first.label}: "
            f"{first.error_type}: {first.message}",
            report=stats.failures,
        )
    logger.error("%s", stats.failures.summary_text())


def _execute_pool(
    pending: List[Cell],
    runner: ExperimentRunner,
    jobs: int,
    worker_clock: Optional[Clock],
    progress: Optional[ProgressReporter],
    retry: RetryPolicy,
    cell_timeout: Optional[float],
    keep_going: bool,
    sleep: Callable[[float], None],
    stats: ParallelStats,
) -> None:
    """Pool execution in retry rounds: a broken pool is rebuilt, failed
    groups re-enter the next round until their attempt budget runs out.

    A broken pool fails every outstanding future, started or not.  Only
    the groups whose worker had started them (their marker file is left
    in the round's directory) are charged an attempt; the others are
    resubmitted free.  A round that broke before any group left a marker
    charges every failed group, so a pool that cannot run anything still
    exhausts the budget.  The next round runs the free groups first."""
    obs = get_obs()
    config = RunnerConfig.from_runner(runner)
    trace = TraceContext.from_obs(obs)
    context = multiprocessing.get_context("spawn")
    remaining = _group_cells(pending)
    attempts: Dict[Tuple[Cell, ...], int] = {group: 0 for group in remaining}
    completed: set = set()
    round_no = 0

    logger.info(
        "parallel precompute: %d cells in %d groups "
        "(%d already memoized) on up to %d workers",
        len(pending),
        len(remaining),
        stats.skipped,
        min(jobs, len(remaining)),
    )

    while remaining:
        round_no += 1
        if round_no > 1:
            # Back off before a retry round (attempt count is per
            # group, but one shared pause per round keeps it simple and
            # injectable).
            sleep(retry.delay(round_no - 1))
        round_groups = remaining
        remaining = []
        abort = False
        broken: Dict[int, BaseException] = {}
        with tempfile.TemporaryDirectory(prefix="repro-round-") as markers:
            # Spawned workers re-import repro; keep the pool no wider than
            # the work list so tiny sweeps don't pay for idle interpreters.
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(round_groups)),
                mp_context=context,
                initializer=_init_worker,
                initargs=(config, worker_clock, cell_timeout, trace),
            ) as pool:
                futures = {
                    pool.submit(_run_group, group, os.path.join(markers, str(index))): index
                    for index, group in enumerate(round_groups)
                }
                for future in as_completed(futures):
                    index = futures[future]
                    group = round_groups[index]
                    try:
                        done, snapshot, spans = future.result()
                    except BrokenProcessPool as exc:
                        broken[index] = exc
                        continue
                    except BaseException as exc:
                        requeue = _handle_group_failure(
                            group, exc, attempts, retry, keep_going, stats, runner
                        )
                        if requeue is None:
                            abort = True
                            for other in futures:
                                other.cancel()
                            break
                        remaining.extend(requeue)
                        continue
                    obs.merge_counter_snapshot(snapshot)
                    obs.merge_span_totals(spans)
                    fresh = [label for label in done if label not in completed]
                    completed.update(fresh)
                    stats.executed += len(fresh)
                    if progress is not None:
                        for label in fresh:
                            progress.update(label)
            # The pool has shut down, so every marker left now belongs
            # to a group whose worker died or was stopped mid-group.
            started = {int(name) for name in os.listdir(markers)}
        if abort:
            return
        charged = (started & broken.keys()) or set(broken)
        # The free groups go first, so a group that broke the pool does
        # not break it again before they have run.
        remaining[:0] = [round_groups[index] for index in sorted(broken.keys() - charged)]
        for index in sorted(charged):
            requeue = _handle_group_failure(
                round_groups[index], broken[index], attempts, retry, keep_going, stats, runner
            )
            if requeue is None:
                return
            remaining.extend(requeue)


def _handle_group_failure(
    group: Tuple[Cell, ...],
    exc: BaseException,
    attempts: Dict[Tuple[Cell, ...], int],
    retry: RetryPolicy,
    keep_going: bool,
    stats: ParallelStats,
    runner: ExperimentRunner,
) -> Optional[List[Tuple[Cell, ...]]]:
    """Classify one failed group; return groups to requeue, or ``None``
    to abort the sweep (strict mode, permanent failure recorded)."""
    obs = get_obs()
    attempts[group] = attempts.get(group, 0) + 1
    if isinstance(exc, _CellFailure):
        transient = exc.transient
        label = exc.label
        error_type = exc.error_type
        message = exc.detail
        tb = exc.tb
    else:
        # The worker died (BrokenProcessPool) or the group was running
        # when another worker's death broke the pool: we cannot know
        # which cell was at fault, so the whole group is retried.
        transient = True
        label = group[0].label()
        error_type = type(exc).__name__
        message = f"{error_type}: {exc} (worker died or pool broke)"
        tb = ""

    if transient and attempts[group] < retry.max_attempts:
        obs.counter("resilience.retries")
        stats.retried += 1
        logger.warning(
            "group %s failed transiently (%s); retry %d/%d",
            label,
            message,
            attempts[group],
            retry.max_attempts - 1,
        )
        return [group]

    failure = CellFailure(
        label=label,
        error_type=error_type,
        message=message,
        attempts=attempts[group],
        transient=transient,
        traceback=tb,
    )
    stats.failures.add(failure)
    stats.failed += 1
    obs.counter("resilience.cells_failed")
    if not keep_going:
        return None

    if isinstance(exc, _CellFailure):
        # The failing cell is known: give the rest of the group (fresh
        # attempt budget) another chance — each resubmission excludes
        # one more permanently-failed cell, so this always terminates.
        rest = tuple(cell for cell in group if cell.label() != exc.label)
        if rest:
            attempts.setdefault(rest, 0)
            return [rest]
        return []
    # Unknown failing cell with the budget exhausted: record every cell
    # of the group that never reached the store, so none vanish silently.
    for cell in group:
        if cell.label() == label:
            continue
        if not _is_stored(runner, cell):
            stats.failures.add(
                CellFailure(
                    label=cell.label(),
                    error_type=error_type,
                    message=f"group aborted: {message}",
                    attempts=attempts[group],
                    transient=transient,
                    traceback="",
                )
            )
            stats.failed += 1
            obs.counter("resilience.cells_failed")
    return []

