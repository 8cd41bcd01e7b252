"""Run experiment drivers: the one sweep loop (:func:`run_sweep`) behind
``run_all()``, ``repro experiment`` and ``repro run-all``."""

from __future__ import annotations

import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError, SweepArgumentError
from repro.resilience import CellFailure, FailureReport, RetryPolicy, is_transient
from repro.experiments import (
    correlations,
    corpus_report,
    fig2,
    fig3,
    fig4,
    fig6,
    fig7,
    fig8,
    fig9,
    hierarchy_ablation,
    schedule_ablation,
    sensitivity,
    spgemm,
    table1,
    table2,
    table3,
    table4,
    tiling,
)
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import ExperimentRunner
from repro.obs import ProgressReporter, format_span_totals, get_obs, logger
from repro.parallel import driver_plan, execute_cells, plan_cells

DRIVERS: Dict[str, Callable[..., ExperimentReport]] = {
    "table1": table1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "sec5-correlations": correlations.run,
    "table2": table2.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "table3": table3.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "table4": table4.run,
}

#: Extensions beyond the paper (DESIGN.md Section 7); runnable by name
#: but excluded from :func:`run_all`'s paper-artifact sweep.
ABLATIONS: Dict[str, Callable[..., ExperimentReport]] = {
    "corpus-report": corpus_report.run,
    "ablation-cache-sensitivity": sensitivity.run,
    "ablation-schedule": schedule_ablation.run,
    "ablation-hierarchy": hierarchy_ablation.run,
    "ablation-tiling": tiling.run,
    "spgemm-sweep": spgemm.run,
}


def _driver(name: str) -> Callable[..., ExperimentReport]:
    try:
        return DRIVERS.get(name) or ABLATIONS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {sorted(DRIVERS) + sorted(ABLATIONS)}"
        ) from None


def run_experiment(
    name: str, profile: str = "full", runner: Optional[ExperimentRunner] = None
) -> ExperimentReport:
    driver = _driver(name)
    obs = get_obs()
    logger.info("experiment %s: starting (profile=%s)", name, profile)
    with obs.span(f"experiment.{name}", profile=profile) as span:
        if name == "table1":
            report = driver(profile=profile)
        else:
            report = driver(profile=profile, runner=runner)
    if span is not None:
        logger.info("experiment %s: done in %.3fs", name, span.seconds)
    return report


def run_sweep(
    names: Sequence[str],
    runner: ExperimentRunner,
    on_report: Callable[[ExperimentReport], None],
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    keep_going: bool = False,
    progress: bool = False,
) -> FailureReport:
    """Run the named drivers on ``runner``: the one sweep loop.

    ``jobs > 1`` first plans every driver's pipeline cells and
    precomputes them in that many worker processes sharing the
    runner's store (see :mod:`repro.parallel`); the drivers then run
    in-process, in order, as store hits, and each finished report goes
    to ``on_report``.  The store is the sweep's only record of finished
    work: a killed sweep is resumed by running it again against the
    same store, which skips every stored cell.

    ``retry`` and ``cell_timeout`` govern the precompute (see
    :func:`repro.parallel.execute_cells`), so with ``jobs <= 1`` they
    raise :class:`~repro.errors.SweepArgumentError` naming the flag
    instead of doing nothing.  With ``keep_going=True`` a failing
    driver is recorded instead of aborting the drivers after it.
    ``progress`` prints per-cell and per-driver progress lines to
    stderr.

    Returns the :class:`FailureReport` of every driver that failed and
    every precompute failure whose driver failed too (the driver
    replay recomputes a missing cell, so a precompute failure alone
    is not final).  Without ``keep_going`` it is always empty: the
    first failure raises.
    """
    if jobs <= 1 and retry is not None and retry.max_attempts > 1:
        raise SweepArgumentError(
            "--retries needs --jobs > 1: only the parallel precompute retries cells"
        )
    if jobs <= 1 and cell_timeout is not None:
        raise SweepArgumentError(
            "--cell-timeout needs --jobs > 1: only the parallel precompute times cells"
        )
    drivers = {name: _driver(name) for name in names}
    pending_cell_failures: Dict[str, CellFailure] = {}
    if jobs > 1:
        cells = plan_cells(drivers, runner.profile)
        cell_progress = ProgressReporter(
            len(cells), label="precompute", enabled=progress and bool(cells)
        )
        stats = execute_cells(
            cells,
            runner,
            jobs,
            progress=cell_progress,
            retry=retry,
            cell_timeout=cell_timeout,
            keep_going=keep_going,
        )
        cell_progress.finish()
        pending_cell_failures = {f.label: f for f in stats.failures}
    driver_progress = ProgressReporter(
        len(drivers), label="experiments", enabled=progress and len(drivers) > 1
    )
    failures = FailureReport()
    for name, driver in drivers.items():
        try:
            report = run_experiment(name, profile=runner.profile, runner=runner)
        except Exception as exc:
            if not keep_going:
                raise
            get_obs().counter("resilience.drivers_failed")
            failures.add(
                CellFailure(
                    label=f"driver:{name}",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    attempts=1,
                    transient=is_transient(exc),
                    traceback=traceback.format_exc(),
                )
            )
            logger.error("driver %s failed (continuing): %s", name, exc)
        else:
            if pending_cell_failures:
                for cell in driver_plan(driver, runner.profile):
                    pending_cell_failures.pop(cell.label(), None)
            on_report(report)
        driver_progress.update(name)
    driver_progress.finish()
    for failure in pending_cell_failures.values():
        failures.add(failure)
    return failures


def run_all(
    profile: str = "full",
    progress: bool = False,
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    keep_going: bool = False,
) -> Tuple[List[ExperimentReport], FailureReport]:
    """Run every paper driver through :func:`run_sweep` on one runner.

    Returns the reports of the drivers that finished and the sweep's
    :class:`FailureReport` (non-empty only under ``keep_going``).
    """
    reports: List[ExperimentReport] = []
    failures = run_sweep(
        list(DRIVERS),
        ExperimentRunner(profile),
        reports.append,
        jobs=jobs,
        retry=retry,
        cell_timeout=cell_timeout,
        keep_going=keep_going,
        progress=progress,
    )
    return reports, failures


def timing_summary() -> str:
    """Where the time went: span totals from the active instrumentation.

    Returns an aligned stage/calls/seconds/share table; nested spans
    (``experiment.*`` wraps the per-stage spans) overlap, so the share
    column is per-row against the largest span, not additive.
    """
    return format_span_totals(get_obs().span_totals())
