"""Cache-blocked (column-tiled) SpMV trace.

The paper's related-work section contrasts reordering with
tiling/blocking optimizations that "divide the matrix into smaller
sub-matrices so as to reduce the range of irregular accesses" and
notes that combining RABBIT++ with tiling is future work (Section
VII).  This module implements that experiment's substrate: a
column-tiled CSR execution model where

* the column range is split into ``n_tiles`` equal tiles;
* non-zeros are stored tile-major (coords/values stream once overall);
* each tile keeps its own row-offset array (the classic tiled-CSR
  storage overhead: ``n_tiles * (n_rows + 1)`` offsets);
* the input-vector gathers of a tile stay inside the tile's column
  range (bounded irregular working set);
* the output vector is re-walked once per tile that touches it (the
  partial-sum re-streaming cost of tiling).

Traffic therefore trades X-gather locality against Y/row-offset
re-streaming — precisely the trade reordering avoids by fixing
locality in place.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.sparse.coo import row_major_order
from repro.sparse.csr import CSRMatrix
from repro.trace.layout import AddressSpace
from repro.trace.kernel_traces import KernelTrace, _collapse, single_block


def spmv_csr_tiled_trace(
    matrix: CSRMatrix,
    n_tiles: int,
    element_bytes: int = 4,
    line_bytes: int = 32,
) -> KernelTrace:
    """Trace of column-tiled SpMV.  ``n_tiles = 1`` degenerates to the
    plain row-major walk (modulo the row-offset layout)."""
    if n_tiles < 1:
        raise ValidationError(f"n_tiles must be >= 1, got {n_tiles}")
    n = matrix.n_rows
    nnz = matrix.nnz
    space = AddressSpace(line_bytes)
    # Per-tile row offsets, laid out tile-major.
    ro = space.allocate("row_offsets", n_tiles * (n + 1), element_bytes)
    coords = space.allocate("coords", max(1, nnz), element_bytes)
    values = space.allocate("values", max(1, nnz), element_bytes)
    x = space.allocate("x", matrix.n_cols, element_bytes)
    y = space.allocate("y", n, element_bytes)

    if nnz == 0:
        return KernelTrace(
            kernel=f"spmv-csr-tiled-{n_tiles}",
            blocks=single_block(np.empty(0, dtype=np.int64)),
            regions=space.region_bounds(),
            n_rows=n,
            nnz=0,
            n_irregular=0,
            line_bytes=line_bytes,
            element_bytes=element_bytes,
            analytic_compulsory_bytes=0,
        )

    tile_width = -(-matrix.n_cols // n_tiles)
    row_of_entry = np.repeat(np.arange(n, dtype=np.int64), np.diff(matrix.row_offsets))
    tile_of_entry = matrix.col_indices // tile_width
    # Tile-major, then row-major, then original in-row order.
    order = row_major_order(tile_of_entry, row_of_entry, n)
    sorted_rows = row_of_entry[order]
    sorted_tiles = tile_of_entry[order]
    sorted_cols = matrix.col_indices[order]

    # Group starts: one row-offset access per (tile, row) group.
    is_group_start = np.empty(nnz, dtype=bool)
    is_group_start[0] = True
    is_group_start[1:] = (sorted_rows[1:] != sorted_rows[:-1]) | (
        sorted_tiles[1:] != sorted_tiles[:-1]
    )
    group_of_entry = np.cumsum(is_group_start) - 1
    n_groups = int(group_of_entry[-1]) + 1

    # Segment layout: [ro] + per entry [coords, values, x, y].
    entries_per_group = np.bincount(group_of_entry, minlength=n_groups)
    seg_lengths = 1 + 4 * entries_per_group
    seg_offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(seg_lengths, out=seg_offsets[1:])
    out = np.empty(int(seg_offsets[-1]), dtype=np.int64)

    group_start_positions = seg_offsets[:-1]
    ro_elements = (
        sorted_tiles[is_group_start] * (n + 1) + sorted_rows[is_group_start]
    )
    out[group_start_positions] = ro.lines_of(ro_elements)

    local = np.arange(nnz, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(entries_per_group)[:-1]]), entries_per_group
    )
    base = seg_offsets[group_of_entry] + 1 + 4 * local
    storage_index = np.arange(nnz, dtype=np.int64)  # tile-major storage
    out[base] = coords.lines_of(storage_index)
    out[base + 1] = values.lines_of(storage_index)
    out[base + 2] = x.lines_of(sorted_cols)
    out[base + 3] = y.lines_of(sorted_rows)

    analytic = (
        2 * n + n_tiles * (n + 1) + 2 * nnz
    ) * element_bytes
    return KernelTrace(
        kernel=f"spmv-csr-tiled-{n_tiles}",
        blocks=single_block(_collapse(out)),
        regions=space.region_bounds(),
        n_rows=n,
        nnz=nnz,
        n_irregular=nnz,
        line_bytes=line_bytes,
        element_bytes=element_bytes,
        analytic_compulsory_bytes=analytic,
    )
