"""Trace oracle: the monolithic SpGEMM trace construction.

:func:`spgemm_csr_trace` is the oracle for
:func:`repro.trace.kernel_traces.spgemm_csr_trace`, which yields the
same trace in bounded row blocks.  This version builds the whole trace
as one array, with the symbolic pass (:func:`spgemm_csr_structure`)
over every row at once; the product's concatenated blocks, regions,
irregular count and analytic compulsory bytes must equal it for every
block budget.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.sparse.csr import CSRMatrix
from repro.trace.layout import AddressSpace

SCHEDULES = ("sequential", "interleaved", "clustered")


class SpgemmTrace(NamedTuple):
    """The fields of a SpGEMM trace the block tests compare."""

    lines: np.ndarray
    regions: List[Tuple[str, int, int]]
    n_irregular: int
    analytic_compulsory_bytes: int


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


def spgemm_csr_structure(matrix: CSRMatrix) -> Tuple[np.ndarray, int]:
    """Symbolic phase of ``C = A @ A``: per-row output nnz and flop count.

    ``flops`` counts multiply-accumulates, i.e. for every non-zero
    ``(i, k)`` of A the length of B's row ``k`` — the standard SpGEMM
    work measure.  Fully vectorized: the expanded (row, col) candidate
    pairs are deduplicated with one in-place sort over packed keys.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValidationError(
            f"spgemm-csr squares the matrix (C = A @ A) and needs a square "
            f"operand, got shape {matrix.shape}"
        )
    n = matrix.n_rows
    degrees = np.diff(matrix.row_offsets)
    if matrix.nnz == 0:
        return np.zeros(n, dtype=np.int64), 0
    b_deg = degrees[matrix.col_indices]
    flops = int(b_deg.sum())
    if flops == 0:
        return np.zeros(n, dtype=np.int64), 0
    row_of_entry = np.repeat(np.arange(n, dtype=np.int64), degrees)
    parent = np.repeat(np.arange(matrix.nnz, dtype=np.int64), b_deg)
    inner_local = _local_indices(b_deg)
    b_entry = matrix.row_offsets[matrix.col_indices[parent]] + inner_local
    keys = row_of_entry[parent] * np.int64(n) + matrix.col_indices[b_entry]
    # Sort + adjacent diff, not np.unique: on NumPy 2.4 values-only
    # np.unique on integers measured ~50x slower than sorting.
    keys.sort()
    distinct = np.empty(keys.size, dtype=bool)
    distinct[0] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    c_row_nnz = np.bincount(keys[distinct] // n, minlength=n).astype(np.int64)
    return c_row_nnz, flops


def spgemm_csr_trace(
    matrix: CSRMatrix,
    element_bytes: int = 4,
    line_bytes: int = 32,
    schedule: str = "sequential",
    n_partitions: int = 32,
) -> SpgemmTrace:
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
    """
    if schedule not in SCHEDULES:
        raise ValidationError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")
    if n_partitions < 1:
        raise ValidationError(f"n_partitions must be >= 1, got {n_partitions}")
    c_row_nnz, flops = spgemm_csr_structure(matrix)
    n = matrix.n_rows
    nnz = matrix.nnz
    nnz_c = int(c_row_nnz.sum())

    space = AddressSpace(line_bytes)
    a_ro = space.allocate("a_row_offsets", n + 1, element_bytes)
    a_coords = space.allocate("a_coords", nnz, element_bytes)
    a_values = space.allocate("a_values", nnz, element_bytes)
    b_ro = space.allocate("b_row_offsets", n + 1, element_bytes)
    b_coords = space.allocate("b_coords", nnz, element_bytes)
    b_values = space.allocate("b_values", nnz, element_bytes)
    c_ro = space.allocate("c_row_offsets", n + 1, element_bytes)
    c_coords = space.allocate("c_coords", nnz_c, element_bytes)
    c_values = space.allocate("c_values", nnz_c, element_bytes)

    # Unified group-based emission.  A group emits its rows' header
    # reads, then its entry segments, then its rows' output segments.
    # Sequential/interleaved schedules use single-row groups (which
    # degenerates to the per-row walk); clustered uses contiguous
    # multi-row clusters with entries sorted by column within a group.
    if schedule == "clustered":
        groups = [part for part in np.array_split(np.arange(n, dtype=np.int64), n_partitions)]
        groups = [part for part in groups if part.size]
        row_order = np.arange(n, dtype=np.int64)
        group_sizes = np.array([part.size for part in groups], dtype=np.int64)
    else:
        row_order = _row_order(n, schedule, n_partitions)
        group_sizes = np.ones(row_order.size, dtype=np.int64)
    n_groups = group_sizes.size

    degrees = np.diff(matrix.row_offsets)
    deg_in_order = degrees[row_order]
    c_deg_in_order = c_row_nnz[row_order]

    # Entries in processing order: rows laid out per row_order, then —
    # for the clustered schedule — stably re-sorted by target column
    # within each group so same-B-row gathers coalesce.
    entry_order = _entries_in_row_order(matrix, row_order)
    group_of_row = np.repeat(np.arange(n_groups, dtype=np.int64), group_sizes)
    group_of_entry = np.repeat(group_of_row, deg_in_order)
    if schedule == "clustered" and entry_order.size:
        key = group_of_entry * np.int64(n + 1) + matrix.col_indices[entry_order]
        resort = np.argsort(key, kind="stable")
        entry_order = entry_order[resort]

    targets = matrix.col_indices[entry_order]
    b_deg = degrees[targets] if entry_order.size else np.empty(0, dtype=np.int64)

    def _group_sums(per_item: np.ndarray, item_group_sizes: np.ndarray) -> np.ndarray:
        prefix = np.zeros(per_item.size + 1, dtype=np.int64)
        np.cumsum(per_item, out=prefix[1:])
        bounds = np.zeros(item_group_sizes.size + 1, dtype=np.int64)
        np.cumsum(item_group_sizes, out=bounds[1:])
        return prefix[bounds[1:]] - prefix[bounds[:-1]]

    entries_per_group = _group_sums(deg_in_order, group_sizes)
    bdeg_per_group = _group_sums(b_deg, entries_per_group)
    cdeg_per_group = _group_sums(c_deg_in_order, group_sizes)
    group_lengths = (
        2 * group_sizes + 3 * entries_per_group + 2 * bdeg_per_group + 2 * cdeg_per_group
    )
    group_offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(group_lengths, out=group_offsets[1:])
    out = np.empty(int(group_offsets[-1]), dtype=np.int64)

    # Header block: a_row_offsets reads for the group's rows.
    row_starts = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(group_sizes, out=row_starts[1:])
    local_row = np.arange(row_order.size, dtype=np.int64) - row_starts[group_of_row]
    header_pos = group_offsets[group_of_row] + local_row
    out[header_pos] = a_ro.lines_of(row_order)

    # Entry block: per A entry the stream pair, the b_row_offsets
    # gather, then the full B-row coords/values walk.
    entry_starts = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(entries_per_group, out=entry_starts[1:])
    if entry_order.size:
        bdeg_prefix = np.zeros(entry_order.size + 1, dtype=np.int64)
        np.cumsum(b_deg, out=bdeg_prefix[1:])
        local_entry = np.arange(entry_order.size, dtype=np.int64) - entry_starts[group_of_entry]
        bdeg_before = bdeg_prefix[:-1] - bdeg_prefix[entry_starts[group_of_entry]]
        seg_start = (
            group_offsets[group_of_entry]
            + group_sizes[group_of_entry]
            + 3 * local_entry
            + 2 * bdeg_before
        )
        out[seg_start] = a_coords.lines_of(entry_order)
        out[seg_start + 1] = a_values.lines_of(entry_order)
        out[seg_start + 2] = b_ro.lines_of(targets)
        if flops:
            parent = np.repeat(np.arange(entry_order.size, dtype=np.int64), b_deg)
            inner_local = _local_indices(b_deg)
            b_entry = matrix.row_offsets[targets[parent]] + inner_local
            inner_pos = seg_start[parent] + 3 + 2 * inner_local
            out[inner_pos] = b_coords.lines_of(b_entry)
            out[inner_pos + 1] = b_values.lines_of(b_entry)

    # Output block: c_row_offsets plus the row's coords/values writes,
    # emitted after the group's compute in row order.  C entry indices
    # follow the canonical row-major CSR layout of the output.
    c_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(c_row_nnz, out=c_offsets[1:])
    c_area = (
        group_offsets[np.arange(n_groups, dtype=np.int64)]
        + group_sizes
        + 3 * entries_per_group
        + 2 * bdeg_per_group
    )
    c_seg_lengths = 1 + 2 * c_deg_in_order
    c_prefix = np.zeros(row_order.size + 1, dtype=np.int64)
    np.cumsum(c_seg_lengths, out=c_prefix[1:])
    c_before = c_prefix[:-1] - c_prefix[row_starts[group_of_row]]
    c_start = c_area[group_of_row] + c_before
    out[c_start] = c_ro.lines_of(row_order)
    if nnz_c:
        c_parent = np.repeat(np.arange(row_order.size, dtype=np.int64), c_deg_in_order)
        c_local = _local_indices(c_deg_in_order)
        c_entry = c_offsets[row_order[c_parent]] + c_local
        c_pos = c_start[c_parent] + 1 + 2 * c_local
        out[c_pos] = c_coords.lines_of(c_entry)
        out[c_pos + 1] = c_values.lines_of(c_entry)

    analytic = (3 * (n + 1) + 4 * nnz + 2 * nnz_c) * element_bytes
    return SpgemmTrace(
        lines=_collapse(out),
        regions=space.region_bounds(),
        n_irregular=nnz + 2 * flops,
        analytic_compulsory_bytes=analytic,
    )


def _local_indices(degrees: np.ndarray) -> np.ndarray:
    """Per-entry offset within its row: [0..d0), [0..d1), ..."""
    total = int(degrees.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    row_position = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    cumulative = np.concatenate([[0], np.cumsum(degrees)[:-1]])
    return np.arange(total, dtype=np.int64) - cumulative[row_position]


def _entries_in_row_order(matrix: CSRMatrix, order: np.ndarray) -> np.ndarray:
    """CSR entry indices laid out in the given row-processing order."""
    if matrix.nnz == 0:
        return np.empty(0, dtype=np.int64)
    degrees = np.diff(matrix.row_offsets)[order]
    starts = matrix.row_offsets[order]
    row_position = np.repeat(np.arange(order.size, dtype=np.int64), degrees)
    return starts[row_position] + _local_indices(degrees)
