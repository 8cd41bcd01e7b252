"""repro.parallel — multicore precomputation of experiment sweeps.

The paper's artifacts decompose into thousands of independent
``(matrix, technique, kernel, policy, mask)`` pipeline cells, all
kept in the result store (:mod:`repro.store`) by
:class:`ExperimentRunner`.  This package enumerates the cells a set of
drivers will request (:mod:`~repro.parallel.planner`), precomputes
them in ``N`` worker
processes sharing that on-disk store (:mod:`~repro.parallel.executor`),
and merges worker-side observability back into the parent — after
which the drivers themselves replay the sweep as store hits.

The sweep loop (:func:`repro.experiments.run_all.run_sweep`, behind
``run_all(jobs=N)``, ``repro run-all --jobs N`` and ``repro experiment
<name> --jobs N``) precomputes only when ``N > 1``; ``jobs=1`` runs the
drivers in-process without touching this package.
"""

from repro.parallel.cells import (
    METRICS,
    RUN,
    Cell,
    dedupe_cells,
    metrics_cell,
    run_cell,
)
from repro.parallel.executor import (
    ParallelStats,
    RunnerConfig,
    TraceContext,
    execute_cells,
)
from repro.parallel.planner import driver_plan, plan_cells
from repro.parallel.pool import map_in_pool

__all__ = [
    "METRICS",
    "RUN",
    "Cell",
    "ParallelStats",
    "RunnerConfig",
    "TraceContext",
    "dedupe_cells",
    "driver_plan",
    "execute_cells",
    "map_in_pool",
    "metrics_cell",
    "plan_cells",
    "run_cell",
]
