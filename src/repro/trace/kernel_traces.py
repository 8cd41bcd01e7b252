"""Line-granular access traces for SpMV, SpMM and SpGEMM.

Each builder walks the arrays exactly as the reference kernel does
(paper Algorithm 1 for SpMV-CSR) and emits one line ID per access,
with consecutive same-line accesses collapsed.  The ``schedule``
parameter optionally interleaves row processing across partitions to
mimic concurrent GPU scheduling; the default sequential walk matches
the row-major traversal the paper's own simulator validated against
real-GPU counters (within 4%).

A :class:`KernelTrace` carries its trace as a replayable *block
source*: calling ``trace.blocks()`` yields the trace as int64 line-ID
arrays, in order.  The SpMV, SpMM and tiled builders are ``O(nnz)`` (or
``O(k * nnz)``) and yield their whole trace as one block.  The SpGEMM
trace grows with the flop count instead, so :func:`spgemm_csr_trace`
builds it lazily, one block of consecutive row groups at a time, each
holding at most :data:`BLOCK_ACCESSES` accesses before the collapse.
A block never starts with the line its predecessor ended on, so the
concatenated blocks are exactly the collapsed whole trace.  The LRU
simulator consumes the blocks one by one (:func:`repro.cache.simulate`);
``trace.lines`` materializes the concatenation for everything else.

A walk of the SpGEMM trace builds its blocks one ahead, on a worker
thread, so block k + 1 is built while the simulator replays block k:
at most three blocks are alive at once (one replayed, one queued, one
being built).  The ``trace`` spans stay on the consumer's thread and
time its waits for blocks, so they read the build time the simulation
did not hide; the worker's own busy seconds go to the
``trace.block.build_s`` counter.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.obs import Instrumentation, get_obs
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.memmap import stream_row_blocks
from repro.trace.layout import AddressSpace

#: Region names holding irregularly-accessed data (gathers through the
#: column indices); the performance model charges their misses at
#: reduced DRAM efficiency.
IRREGULAR_REGIONS = ("x", "b")

#: Regions of the SpGEMM second operand, gathered through A's column
#: indices — the irregular side of the Gustavson walk.
SPGEMM_IRREGULAR_REGIONS = ("b_row_offsets", "b_coords", "b_values")

SCHEDULES = ("sequential", "interleaved", "clustered")

#: Most accesses (before the collapse) in one lazily built SpGEMM trace
#: block, and most candidate products in one block of the symbolic
#: pass.  A single row group above it is its own block.  2^18 keeps the
#: three blocks a walk holds at once (2 MB of int64 line IDs each before
#: the collapse, plus the build's and the bucketing's temporaries) below
#: what one 2^20 block took, and each block still spans enough numpy
#: work for the worker's build to overlap the replay.
BLOCK_ACCESSES = 1 << 18

#: Zero-argument callable returning a generator of a trace's line-ID
#: blocks in order.  Closing the generator releases what the walk holds.
BlockSource = Callable[[], Iterator[np.ndarray]]


def single_block(lines: np.ndarray) -> BlockSource:
    """Block source of a trace that is already one array."""
    return partial(_yield_one, lines)


def _yield_one(lines: np.ndarray) -> Iterator[np.ndarray]:
    yield lines


@dataclass
class KernelTrace:
    """A kernel's memory trace plus the metadata the model needs.

    ``blocks`` is the replayable block source (see the module
    docstring); every call walks the trace afresh.  :attr:`lines`
    concatenates the blocks on each access and does not cache them, so
    a consumer that can take blocks (the LRU simulator) should.
    """

    kernel: str
    blocks: BlockSource
    regions: List[Tuple[str, int, int]]
    n_rows: int
    nnz: int
    #: Raw (pre-collapse) irregular gather count.
    n_irregular: int
    irregular_regions: Tuple[str, ...] = IRREGULAR_REGIONS
    line_bytes: int = 32
    element_bytes: int = 4
    #: Analytic compulsory-traffic estimate, paper Section IV-B formula.
    analytic_compulsory_bytes: int = 0
    schedule: str = "sequential"

    @property
    def lines(self) -> np.ndarray:
        """The whole trace as one array, built anew on every access."""
        blocks = list(self.blocks())
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(blocks)

    @property
    def n_accesses(self) -> int:
        return sum(int(block.size) for block in self.blocks())

    @property
    def line_space(self) -> int:
        """One past the largest line ID the trace's regions hold."""
        return max((hi for _, _, hi in self.regions), default=0)


def _collapse(lines: np.ndarray) -> np.ndarray:
    """Drop consecutive duplicate line IDs (trivial hits)."""
    if lines.size == 0:
        return lines
    keep = np.empty(lines.size, dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return lines[keep]


def _row_order(n_rows: int, schedule: str, n_partitions: int) -> np.ndarray:
    if schedule not in SCHEDULES:
        raise ValidationError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")
    # "clustered" groups contiguous row blocks; for single-operand kernels
    # the blocks are walked in order, which is exactly the sequential walk.
    if schedule in ("sequential", "clustered") or n_rows == 0:
        return np.arange(n_rows, dtype=np.int64)
    if n_partitions < 1:
        raise ValidationError(f"n_partitions must be >= 1, got {n_partitions}")
    # Split rows into contiguous chunks and take one row per chunk in
    # round-robin order, mimicking concurrent SMs walking their chunks.
    parts = np.array_split(np.arange(n_rows, dtype=np.int64), n_partitions)
    width = max(part.size for part in parts)
    order = np.full((width, n_partitions), -1, dtype=np.int64)
    for column, part in enumerate(parts):
        order[: part.size, column] = part
    flat = order.reshape(-1)
    return flat[flat >= 0]


def spmv_csr_trace(
    matrix: CSRMatrix,
    element_bytes: int = 4,
    line_bytes: int = 32,
    schedule: str = "sequential",
    n_partitions: int = 32,
) -> KernelTrace:
    """Trace of ``y = A @ x`` with A in CSR (paper Algorithm 1).

    Per row: one ``rowOffsets`` read, then per non-zero a ``coords``
    read, a ``values`` read and the irregular ``x`` gather, and finally
    the ``y`` store.
    """
    n = matrix.n_rows
    nnz = matrix.nnz
    space = AddressSpace(line_bytes)
    ro = space.allocate("row_offsets", n + 1, element_bytes)
    coords = space.allocate("coords", nnz, element_bytes)
    values = space.allocate("values", nnz, element_bytes)
    x = space.allocate("x", matrix.n_cols, element_bytes)
    y = space.allocate("y", n, element_bytes)

    order = _row_order(n, schedule, n_partitions)
    degrees = np.diff(matrix.row_offsets)[order]
    seg_lengths = 3 * degrees + 2
    seg_offsets = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(seg_lengths, out=seg_offsets[1:])
    out = np.empty(int(seg_offsets[-1]), dtype=np.int64)

    out[seg_offsets[:-1]] = ro.lines_of(order)
    out[seg_offsets[1:] - 1] = y.lines_of(order)

    # Non-zero entries, laid out in processing order.
    entry_index = _entries_in_row_order(matrix, order)
    if entry_index.size:
        row_position = np.repeat(np.arange(order.size, dtype=np.int64), degrees)
        local = _local_indices(degrees)
        base = seg_offsets[row_position] + 1 + 3 * local
        out[base] = coords.lines_of(entry_index)
        out[base + 1] = values.lines_of(entry_index)
        out[base + 2] = x.lines_of(matrix.col_indices[entry_index])

    analytic = (2 * n + (n + 1) + 2 * nnz) * element_bytes
    return KernelTrace(
        kernel="spmv-csr",
        blocks=single_block(_collapse(out)),
        regions=space.region_bounds(),
        n_rows=n,
        nnz=nnz,
        n_irregular=nnz,
        line_bytes=line_bytes,
        element_bytes=element_bytes,
        analytic_compulsory_bytes=analytic,
        schedule=schedule,
    )


def spmv_coo_trace(
    matrix: COOMatrix,
    element_bytes: int = 4,
    line_bytes: int = 32,
) -> KernelTrace:
    """Trace of ``y = A @ x`` with A in COO.

    Per non-zero: ``rows``, ``cols`` and ``vals`` stream reads, the
    irregular ``x`` gather, and the ``y`` update (streaming when the
    COO is row-sorted, which cuSPARSE requires).
    """
    n = matrix.n_rows
    nnz = matrix.nnz
    space = AddressSpace(line_bytes)
    rows = space.allocate("rows", nnz, element_bytes)
    cols = space.allocate("cols", nnz, element_bytes)
    vals = space.allocate("values", nnz, element_bytes)
    x = space.allocate("x", matrix.n_cols, element_bytes)
    y = space.allocate("y", n, element_bytes)

    # The kernel walks entries in row-sorted order (identity for an
    # already-sorted COO); *every* region must be indexed by that same
    # walk — the stream reads address position order[i] of the arrays
    # as laid out, and the x/y accesses belong to that same entry.
    order = np.argsort(matrix.rows, kind="stable")
    out = np.empty(5 * nnz, dtype=np.int64)
    out[0::5] = rows.lines_of(order)
    out[1::5] = cols.lines_of(order)
    out[2::5] = vals.lines_of(order)
    out[3::5] = x.lines_of(matrix.cols[order])
    out[4::5] = y.lines_of(matrix.rows[order])

    analytic = (2 * n + 3 * nnz) * element_bytes
    return KernelTrace(
        kernel="spmv-coo",
        blocks=single_block(_collapse(out)),
        regions=space.region_bounds(),
        n_rows=n,
        nnz=nnz,
        n_irregular=nnz,
        line_bytes=line_bytes,
        element_bytes=element_bytes,
        analytic_compulsory_bytes=analytic,
    )


def spmm_csr_trace(
    matrix: CSRMatrix,
    k: int,
    element_bytes: int = 4,
    line_bytes: int = 32,
) -> KernelTrace:
    """Trace of ``Y = A @ B`` with A in CSR and B dense ``n x k`` row-major.

    Per non-zero, the gather reads the whole ``k``-element row of B —
    the irregular footprint grows by a factor of ``k`` relative to
    SpMV, which is why the paper's Table IV ratios explode for
    SpMM-CSR-256.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    n = matrix.n_rows
    nnz = matrix.nnz
    space = AddressSpace(line_bytes)
    ro = space.allocate("row_offsets", n + 1, element_bytes)
    coords = space.allocate("coords", nnz, element_bytes)
    values = space.allocate("values", nnz, element_bytes)
    b = space.allocate("b", matrix.n_cols * k, element_bytes)
    y = space.allocate("y", n * k, element_bytes)

    gather_starts, span = b.byte_span_lines(matrix.col_indices * k, k)
    y_starts, y_span = y.byte_span_lines(np.arange(n, dtype=np.int64) * k, k)

    degrees = np.diff(matrix.row_offsets)
    per_entry = 2 + span
    seg_lengths = 1 + per_entry * degrees + y_span
    seg_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(seg_lengths, out=seg_offsets[1:])
    out = np.empty(int(seg_offsets[-1]), dtype=np.int64)

    out[seg_offsets[:-1]] = ro.lines_of(np.arange(n, dtype=np.int64))
    for t in range(y_span):
        out[seg_offsets[1:] - y_span + t] = y_starts + t

    if nnz:
        row_of_entry = np.repeat(np.arange(n, dtype=np.int64), degrees)
        local = _local_indices(degrees)
        base = seg_offsets[row_of_entry] + 1 + per_entry * local
        entries = np.arange(nnz, dtype=np.int64)
        out[base] = coords.lines_of(entries)
        out[base + 1] = values.lines_of(entries)
        for t in range(span):
            out[base + 2 + t] = gather_starts + t

    analytic = ((n + 1) + 2 * nnz + 2 * n * k) * element_bytes
    return KernelTrace(
        kernel=f"spmm-csr-{k}",
        blocks=single_block(_collapse(out)),
        regions=space.region_bounds(),
        n_rows=n,
        nnz=nnz,
        n_irregular=nnz * span,
        line_bytes=line_bytes,
        element_bytes=element_bytes,
        analytic_compulsory_bytes=analytic,
    )


def spgemm_csr_structure(matrix: CSRMatrix) -> Tuple[np.ndarray, int]:
    """Symbolic phase of ``C = A @ A``: per-row output nnz and flop count.

    ``flops`` counts multiply-accumulates, i.e. for every non-zero
    ``(i, k)`` of A the length of B's row ``k`` — the standard SpGEMM
    work measure.  Runs in bounded row blocks (:func:`_spgemm_symbolic`).
    """
    c_row_nnz, row_flops = _spgemm_symbolic(matrix)
    return c_row_nnz, int(row_flops.sum())


def _spgemm_symbolic(matrix: CSRMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row output nnz and per-row flops of ``C = A @ A``.

    Rows are taken in blocks whose candidate ``(row, col)`` products
    stay under :data:`BLOCK_ACCESSES`; each block's candidates are
    deduplicated with one in-place sort over packed block-relative
    keys.  Duplicates never span rows, so per-block counts are exact.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValidationError(
            f"spgemm-csr squares the matrix (C = A @ A) and needs a square "
            f"operand, got shape {matrix.shape}"
        )
    n = matrix.n_rows
    offsets = matrix.row_offsets
    cols = matrix.col_indices
    degrees = np.diff(offsets)
    # flops_before[i]: candidate products of the rows before row i.
    flops_before = _prefix(degrees[cols])[offsets]
    c_row_nnz = np.zeros(n, dtype=np.int64)
    for lo, hi in stream_row_blocks(flops_before, n, BLOCK_ACCESSES):
        if flops_before[hi] == flops_before[lo]:
            continue
        block_cols = cols[offsets[lo]: offsets[hi]]
        b_deg = degrees[block_cols]
        parent = np.repeat(np.arange(block_cols.size, dtype=np.int64), b_deg)
        block_row = np.repeat(np.arange(hi - lo, dtype=np.int64), degrees[lo:hi])
        keys = block_row[parent] * np.int64(n)
        keys += cols[offsets[block_cols[parent]] + _local_indices(b_deg)]
        # Sort + adjacent diff, not np.unique: on NumPy 2.4 values-only
        # np.unique on integers measured ~50x slower than sorting.
        keys.sort()
        distinct = np.empty(keys.size, dtype=bool)
        distinct[0] = True
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        c_row_nnz[lo:hi] = np.bincount(keys[distinct] // n, minlength=hi - lo)
    return c_row_nnz, np.diff(flops_before)


def spgemm_csr_trace(
    matrix: CSRMatrix,
    element_bytes: int = 4,
    line_bytes: int = 32,
    schedule: str = "sequential",
    n_partitions: int = 32,
) -> KernelTrace:
    """Trace of Gustavson row-wise ``C = A @ A`` with both operands CSR.

    Per output row ``i``: one ``a_row_offsets`` read, then per non-zero
    ``(i, k)`` of A an ``a_coords``/``a_values`` stream pair followed by
    the irregular B-side gathers — ``b_row_offsets[k]`` plus the whole
    ``b_coords``/``b_values`` walk of B's row ``k`` — and finally the
    streamed ``c_row_offsets``/``c_coords``/``c_values`` output writes.
    The dense SPA accumulator lives on-chip and is not traced, matching
    how the reference Gustavson kernel keeps it in shared memory.

    Although B equals A numerically (the kernel squares the matrix), B
    is laid out as a distinct operand buffer so the simulator can
    attribute first- and second-operand traffic separately.

    ``schedule`` selects the computation order:

    * ``"sequential"`` — rows in order, the textbook Gustavson walk;
    * ``"interleaved"`` — rows round-robined across ``n_partitions``
      contiguous chunks, mimicking concurrent workers;
    * ``"clustered"`` — the cluster-wise computation schedule of
      arXiv 2507.21253: rows are grouped into ``n_partitions``
      contiguous clusters and within a cluster the A entries are
      processed sorted by column, so repeated walks of the same B row
      land adjacently and hit in cache.

    The trace grows with the flop count, so only the symbolic pass and
    the per-row plan run here; the accesses are built lazily, block by
    block, each time the trace's block source is walked.
    """
    if schedule not in SCHEDULES:
        raise ValidationError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")
    if n_partitions < 1:
        raise ValidationError(f"n_partitions must be >= 1, got {n_partitions}")
    c_row_nnz, row_flops = _spgemm_symbolic(matrix)
    n = matrix.n_rows
    nnz = matrix.nnz
    nnz_c = int(c_row_nnz.sum())

    space = AddressSpace(line_bytes)
    for name, n_elements in (
        ("a_row_offsets", n + 1),
        ("a_coords", nnz),
        ("a_values", nnz),
        ("b_row_offsets", n + 1),
        ("b_coords", nnz),
        ("b_values", nnz),
        ("c_row_offsets", n + 1),
        ("c_coords", nnz_c),
        ("c_values", nnz_c),
    ):
        space.allocate(name, n_elements, element_bytes)
    walk = _SpgemmWalk(matrix, space, schedule, n_partitions, c_row_nnz, row_flops)

    analytic = (3 * (n + 1) + 4 * nnz + 2 * nnz_c) * element_bytes
    return KernelTrace(
        kernel="spgemm-csr",
        blocks=walk.blocks,
        regions=space.region_bounds(),
        n_rows=n,
        nnz=nnz,
        n_irregular=nnz + 2 * int(row_flops.sum()),
        irregular_regions=SPGEMM_IRREGULAR_REGIONS,
        line_bytes=line_bytes,
        element_bytes=element_bytes,
        analytic_compulsory_bytes=analytic,
        schedule=schedule,
    )


class _SpgemmWalk:
    """The Gustavson walk's group plan, replayed one block at a time.

    A group emits its rows' header reads, then its entry segments, then
    its rows' output segments.  Sequential/interleaved schedules use
    single-row groups (which degenerates to the per-row walk);
    clustered uses contiguous multi-row clusters with entries sorted by
    column within a group.  The plan holds per-row and per-group arrays
    only; a block's accesses are built when the walk reaches it.
    """

    def __init__(
        self,
        matrix: CSRMatrix,
        space: AddressSpace,
        schedule: str,
        n_partitions: int,
        c_row_nnz: np.ndarray,
        row_flops: np.ndarray,
    ) -> None:
        n = matrix.n_rows
        if schedule == "clustered":
            parts = np.array_split(np.arange(n, dtype=np.int64), n_partitions)
            row_order = np.arange(n, dtype=np.int64)
            group_sizes = np.array([part.size for part in parts if part.size], dtype=np.int64)
        else:
            row_order = _row_order(n, schedule, n_partitions)
            group_sizes = np.ones(row_order.size, dtype=np.int64)
        self.matrix = matrix
        self.space = space
        self.clustered = schedule == "clustered"
        self.degrees = np.diff(matrix.row_offsets)
        self.c_row_nnz = c_row_nnz
        self.c_offsets = _prefix(c_row_nnz)
        self.row_order = row_order
        self.group_sizes = group_sizes
        #: First position in ``row_order`` of each group's rows.
        self.row_starts = _prefix(group_sizes)
        self.entries_per_group = _group_sums(self.degrees[row_order], self.row_starts)
        self.flops_per_group = _group_sums(row_flops[row_order], self.row_starts)
        c_per_group = _group_sums(c_row_nnz[row_order], self.row_starts)
        #: First trace position (before the collapse) of each group.
        self.group_offsets = _prefix(
            2 * group_sizes
            + 3 * self.entries_per_group
            + 2 * self.flops_per_group
            + 2 * c_per_group
        )

    def blocks(self) -> Iterator[np.ndarray]:
        """Collapsed blocks of at most :data:`BLOCK_ACCESSES` accesses.

        Every group starts with an ``a_row_offsets`` read and ends with
        a C write, in separate regions, so no block starts with the line
        its predecessor ended on: collapsing each block collapses the
        whole trace.

        One worker thread per walk builds the blocks in order and hands
        each over through a one-slot queue, so it runs at most one
        block ahead of the queued one.  Each wait for a block is a
        ``trace`` span on the consumer's thread: trace building is
        charged the time the consumer waited, and the worker, which
        opens no span, adds its busy seconds to the
        ``trace.block.build_s`` counter.  An exception raised while
        building a block is raised here, in its place.  Closing or
        dropping the generator stops and joins the worker.
        """
        obs = get_obs()
        ranges = list(
            stream_row_blocks(self.group_offsets, self.group_sizes.size, BLOCK_ACCESSES)
        )
        handoff: "queue.Queue[object]" = queue.Queue(maxsize=1)
        stop = threading.Event()
        worker = threading.Thread(
            target=self._build,
            args=(ranges, handoff, stop, obs),
            name="spgemm-trace-blocks",
            daemon=True,
        )
        worker.start()
        try:
            for _ in ranges:
                with obs.span("trace", kernel="spgemm-csr"):
                    block = handoff.get()
                    if isinstance(block, BaseException):
                        raise block
                yield block
        finally:
            stop.set()
            # The worker checks ``stop`` between hand-overs, so it makes
            # at most one more; emptying the slot lets that one through
            # instead of blocking it forever.
            try:
                handoff.get_nowait()
            except queue.Empty:
                pass
            worker.join()

    def _build(
        self,
        ranges: Sequence[Tuple[int, int]],
        handoff: "queue.Queue[object]",
        stop: threading.Event,
        obs: Instrumentation,
    ) -> None:
        """Worker: build each group range's collapsed block, hand it over.

        A failed build hands over its exception instead and ends the
        walk; even a ``BaseException`` goes to the consumer, which
        raises it, because a worker that died silently would leave the
        consumer waiting forever.
        """
        for lo, hi in ranges:
            if stop.is_set():
                return
            start = obs.clock.now()
            try:
                block = _collapse(self._accesses(lo, hi))
            except BaseException as exc:
                handoff.put(exc)
                return
            obs.counter("trace.block.build_s", obs.clock.now() - start)
            handoff.put(block)

    def _accesses(self, lo: int, hi: int) -> np.ndarray:
        """The uncollapsed accesses of groups ``[lo, hi)``."""
        matrix = self.matrix
        cols = matrix.col_indices
        region = self.space.region
        sizes = self.group_sizes[lo:hi]
        rows = self.row_order[self.row_starts[lo]: self.row_starts[hi]]
        row_starts = self.row_starts[lo: hi + 1] - self.row_starts[lo]
        group_offsets = self.group_offsets[lo: hi + 1] - self.group_offsets[lo]
        entries_per_group = self.entries_per_group[lo:hi]
        out = np.empty(int(group_offsets[-1]), dtype=np.int64)
        group_of_row = np.repeat(np.arange(hi - lo, dtype=np.int64), sizes)

        # Header block: a_row_offsets reads for the group's rows.
        local_row = np.arange(rows.size, dtype=np.int64) - row_starts[group_of_row]
        out[group_offsets[group_of_row] + local_row] = region("a_row_offsets").lines_of(rows)

        # Entries in processing order: rows laid out per row order,
        # then — for the clustered schedule — stably re-sorted by target
        # column within each group so same-B-row gathers coalesce.
        entry_order = _entries_in_row_order(matrix, rows)
        if entry_order.size:
            group_of_entry = np.repeat(group_of_row, self.degrees[rows])
            if self.clustered:
                key = group_of_entry * np.int64(matrix.n_rows + 1) + cols[entry_order]
                entry_order = entry_order[np.argsort(key, kind="stable")]
            # Entry block: per A entry the stream pair, the
            # b_row_offsets gather, then the full B-row coords/values walk.
            targets = cols[entry_order]
            b_deg = self.degrees[targets]
            bdeg_prefix = _prefix(b_deg)
            first_entry = _prefix(entries_per_group)[group_of_entry]
            seg_start = (
                group_offsets[group_of_entry]
                + sizes[group_of_entry]
                + 3 * (np.arange(entry_order.size, dtype=np.int64) - first_entry)
                + 2 * (bdeg_prefix[:-1] - bdeg_prefix[first_entry])
            )
            out[seg_start] = region("a_coords").lines_of(entry_order)
            out[seg_start + 1] = region("a_values").lines_of(entry_order)
            out[seg_start + 2] = region("b_row_offsets").lines_of(targets)
            if bdeg_prefix[-1]:
                parent = np.repeat(np.arange(entry_order.size, dtype=np.int64), b_deg)
                inner_local = _local_indices(b_deg)
                b_entry = matrix.row_offsets[targets[parent]] + inner_local
                inner_pos = seg_start[parent] + 3 + 2 * inner_local
                out[inner_pos] = region("b_coords").lines_of(b_entry)
                out[inner_pos + 1] = region("b_values").lines_of(b_entry)

        # Output block: c_row_offsets plus the row's coords/values
        # writes, emitted after the group's compute in row order.  C
        # entry indices follow the canonical row-major CSR layout.
        c_deg = self.c_row_nnz[rows]
        c_area = (
            group_offsets[:-1] + sizes + 3 * entries_per_group + 2 * self.flops_per_group[lo:hi]
        )
        c_prefix = _prefix(1 + 2 * c_deg)
        c_start = c_area[group_of_row] + c_prefix[:-1] - c_prefix[row_starts[group_of_row]]
        out[c_start] = region("c_row_offsets").lines_of(rows)
        if c_deg.any():
            c_parent = np.repeat(np.arange(rows.size, dtype=np.int64), c_deg)
            c_local = _local_indices(c_deg)
            c_entry = self.c_offsets[rows[c_parent]] + c_local
            c_pos = c_start[c_parent] + 1 + 2 * c_local
            out[c_pos] = region("c_coords").lines_of(c_entry)
            out[c_pos + 1] = region("c_values").lines_of(c_entry)
        return out


def _prefix(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: exclusive prefix sums plus the total."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _group_sums(per_item: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
    """Sums of ``per_item`` over consecutive groups starting at ``group_starts``."""
    prefix = _prefix(per_item)
    return prefix[group_starts[1:]] - prefix[group_starts[:-1]]


def _local_indices(degrees: np.ndarray) -> np.ndarray:
    """Per-entry offset within its row: [0..d0), [0..d1), ..."""
    total = int(degrees.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    local = np.arange(total, dtype=np.int64)
    local -= np.repeat(_prefix(degrees)[:-1], degrees)
    return local


def _entries_in_row_order(matrix: CSRMatrix, order: np.ndarray) -> np.ndarray:
    """CSR entry indices laid out in the given row-processing order."""
    if matrix.nnz == 0:
        return np.empty(0, dtype=np.int64)
    starts = matrix.row_offsets[order]
    degrees = matrix.row_offsets[order + 1] - starts
    return np.repeat(starts, degrees) + _local_indices(degrees)
