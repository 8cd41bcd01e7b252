"""Memory-mapped CSR storage for out-of-core matrices.

A matrix too large for RAM lives as a directory of raw array files plus
a checksummed metadata document::

    <dir>/
      meta.json         # integrity envelope (repro.resilience.integrity)
      row_offsets.bin   # int64,  n_rows + 1 entries
      col_indices.bin   # int64,  nnz entries
      values.bin        # float64, nnz entries

:func:`load_csr_memmap` maps the arrays with ``np.memmap`` and builds a
regular :class:`~repro.sparse.csr.CSRMatrix` around them via the
trusted ``from_verified_arrays`` path, so every downstream consumer —
community detection, reordering techniques, the kernels — sees the
usual CSR interface while the OS pages nnz-sized data in on demand.
The CSR invariants are verified **once, at save time**, and recorded in
``meta.json``; the load path re-checks only the metadata checksum and
the byte length of each array file, which catches truncation and
swapped files without touching array contents.

``meta.json`` also records a sha256 per array.  Verifying those hashes
pages everything in, so it is opt-in (``load_csr_memmap(...,
verify_arrays=True)`` and ``repro doctor``-style audits), not part of
the routine load.

Writes are crash-safe: arrays and metadata land in a ``<dir>.tmp.*``
staging directory that is atomically renamed over the target, so a
reader never sees a half-written matrix.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import CacheIntegrityError, FormatError
from repro.resilience.integrity import (
    atomic_write_payload,
    load_verified,
    unique_tmp_path,
)
from repro.sparse.coo import INDEX_DTYPE, VALUE_DTYPE, row_major_order
from repro.sparse.csr import CSRMatrix

#: Bump when the on-disk layout changes; loaders reject other versions.
MEMMAP_FORMAT_VERSION = 1

META_FILENAME = "meta.json"

_ARRAY_FILES = ("row_offsets.bin", "col_indices.bin", "values.bin")

#: Elements copied per chunk when streaming arrays to/from disk (64 MB
#: of float64); bounds the writer's resident set regardless of nnz.
_COPY_CHUNK = 8 << 20


def _iter_chunks(array: np.ndarray) -> Iterator[np.ndarray]:
    for start in range(0, array.size, _COPY_CHUNK):
        yield array[start: start + _COPY_CHUNK]


def _write_array(path: str, array: np.ndarray, dtype: np.dtype) -> str:
    """Stream ``array`` to ``path`` as raw ``dtype`` bytes; sha256 hex."""
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for chunk in _iter_chunks(array):
            data = np.ascontiguousarray(chunk, dtype=dtype).tobytes()
            digest.update(data)
            handle.write(data)
    return digest.hexdigest()


def _array_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 24), b""):
            digest.update(block)
    return digest.hexdigest()


def save_csr_memmap(
    matrix: CSRMatrix, directory: str, extra_meta: Optional[Dict[str, object]] = None
) -> str:
    """Persist a CSR matrix as a memmap directory; returns ``directory``.

    The matrix's invariants hold by construction (:class:`CSRMatrix`
    validates them), so the metadata this writes is a faithful record
    and :func:`load_csr_memmap` may skip the O(nnz) re-validation.
    ``extra_meta`` lands under the ``"extra"`` key (generator
    parameters, provenance notes).
    """
    staging = unique_tmp_path(directory)
    os.makedirs(staging)
    try:
        hashes = {
            "row_offsets.bin": _write_array(
                os.path.join(staging, "row_offsets.bin"),
                matrix.row_offsets,
                np.dtype(INDEX_DTYPE),
            ),
            "col_indices.bin": _write_array(
                os.path.join(staging, "col_indices.bin"),
                matrix.col_indices,
                np.dtype(INDEX_DTYPE),
            ),
            "values.bin": _write_array(
                os.path.join(staging, "values.bin"),
                matrix.values,
                np.dtype(VALUE_DTYPE),
            ),
        }
        payload: Dict[str, object] = {
            "format": "csr-memmap",
            "version": MEMMAP_FORMAT_VERSION,
            "n_rows": matrix.n_rows,
            "n_cols": matrix.n_cols,
            "nnz": matrix.nnz,
            "index_dtype": np.dtype(INDEX_DTYPE).str,
            "value_dtype": np.dtype(VALUE_DTYPE).str,
            "array_bytes": {
                "row_offsets.bin": (matrix.n_rows + 1) * np.dtype(INDEX_DTYPE).itemsize,
                "col_indices.bin": matrix.nnz * np.dtype(INDEX_DTYPE).itemsize,
                "values.bin": matrix.nnz * np.dtype(VALUE_DTYPE).itemsize,
            },
            "array_sha256": hashes,
            "extra": dict(extra_meta or {}),
        }
        atomic_write_payload(os.path.join(staging, META_FILENAME), payload)
        # Atomic publish: a concurrent saver of the same directory wins
        # last, and readers only ever see a complete directory.
        if os.path.isdir(directory):
            shutil.rmtree(directory)
        os.makedirs(os.path.dirname(os.path.abspath(directory)), exist_ok=True)
        os.replace(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return directory


def read_memmap_meta(directory: str) -> Dict[str, object]:
    """Load + verify ``meta.json``; raises :class:`CacheIntegrityError`."""
    meta_path = os.path.join(directory, META_FILENAME)
    payload = load_verified(meta_path)
    if payload.get("format") != "csr-memmap" or payload.get("version") != MEMMAP_FORMAT_VERSION:
        raise CacheIntegrityError(
            f"{meta_path}: not a csr-memmap v{MEMMAP_FORMAT_VERSION} directory "
            f"(format={payload.get('format')!r}, version={payload.get('version')!r})"
        )
    return payload


def _check_file_length(directory: str, name: str, expected: int) -> str:
    path = os.path.join(directory, name)
    try:
        actual = os.path.getsize(path)
    except OSError as exc:
        raise CacheIntegrityError(f"{path}: missing array file ({exc})") from exc
    if actual != expected:
        raise CacheIntegrityError(
            f"{path}: array file is {actual} bytes, metadata declares {expected}"
        )
    return path


def load_csr_memmap(
    directory: str, mode: str = "r", verify_arrays: bool = False
) -> CSRMatrix:
    """Open a memmap directory as a :class:`CSRMatrix`.

    ``mode`` is the ``np.memmap`` mode (default read-only).  The
    metadata envelope and per-array byte lengths are always verified;
    ``verify_arrays=True`` additionally re-hashes the array files
    (paging them in — an audit, not a routine load).
    """
    meta = read_memmap_meta(directory)
    if meta["index_dtype"] != np.dtype(INDEX_DTYPE).str or (
        meta["value_dtype"] != np.dtype(VALUE_DTYPE).str
    ):
        raise CacheIntegrityError(
            f"{directory}: foreign dtypes {meta['index_dtype']}/{meta['value_dtype']}"
        )
    n_rows = int(meta["n_rows"])  # type: ignore[arg-type]
    n_cols = int(meta["n_cols"])  # type: ignore[arg-type]
    nnz = int(meta["nnz"])  # type: ignore[arg-type]
    lengths: Dict[str, int] = meta["array_bytes"]  # type: ignore[assignment]
    paths = {
        name: _check_file_length(directory, name, int(lengths[name]))
        for name in _ARRAY_FILES
    }
    if verify_arrays:
        recorded: Dict[str, str] = meta["array_sha256"]  # type: ignore[assignment]
        for name, path in paths.items():
            actual = _array_sha256(path)
            if actual != recorded[name]:
                raise CacheIntegrityError(
                    f"{path}: array checksum mismatch "
                    f"(stored {recorded[name][:12]}…, computed {actual[:12]}…)"
                )
    row_offsets = np.memmap(
        paths["row_offsets.bin"], dtype=INDEX_DTYPE, mode=mode, shape=(n_rows + 1,)
    )
    if nnz:  # np.memmap rejects zero-length files
        col_indices = np.memmap(
            paths["col_indices.bin"], dtype=INDEX_DTYPE, mode=mode, shape=(nnz,)
        )
        values = np.memmap(paths["values.bin"], dtype=VALUE_DTYPE, mode=mode, shape=(nnz,))
    else:
        col_indices = np.empty(0, dtype=INDEX_DTYPE)
        values = np.empty(0, dtype=VALUE_DTYPE)
    return CSRMatrix.from_verified_arrays(n_rows, n_cols, row_offsets, col_indices, values)


def is_memmap_backed(matrix: CSRMatrix) -> bool:
    """Whether any of the matrix's arrays is an ``np.memmap``."""
    return any(
        isinstance(array, np.memmap)
        for array in (matrix.row_offsets, matrix.col_indices, matrix.values)
    )


# -- out-of-core COO -> CSR ---------------------------------------------


def csr_from_coo_chunks(
    chunks: Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    n_rows: int,
    n_cols: int,
    directory: str,
    extra_meta: Optional[Dict[str, object]] = None,
) -> CSRMatrix:
    """Build a memmap CSR from a *replayable* stream of COO chunks.

    ``chunks`` is a zero-argument callable returning a fresh iterator of
    ``(rows, cols, values)`` chunk triples; the stream is consumed twice
    (row histogram, then scatter), which is what keeps the build
    out-of-core — only one chunk plus the CSR memmaps are ever resident.

    Entry ordering matches :func:`repro.sparse.convert.coo_to_csr`:
    within each row, entries are sorted by column with ties keeping
    stream order.  (The scatter places entries in stream order per row;
    a per-row-block :func:`~repro.sparse.coo.row_major_order` then
    reproduces the in-memory order exactly.)
    """
    if not callable(chunks):
        raise FormatError("chunks must be a callable returning a chunk iterator")
    counts = np.zeros(n_rows, dtype=INDEX_DTYPE)
    nnz = 0
    for rows, _, _ in chunks():
        counts += np.bincount(rows, minlength=n_rows).astype(INDEX_DTYPE)
        nnz += rows.size

    staging = unique_tmp_path(directory)
    os.makedirs(staging)
    try:
        offsets = np.memmap(
            os.path.join(staging, "row_offsets.bin"),
            dtype=INDEX_DTYPE, mode="w+", shape=(n_rows + 1,),
        )
        offsets[0] = 0
        np.cumsum(counts, out=offsets[1:])
        if nnz:
            indices = np.memmap(
                os.path.join(staging, "col_indices.bin"),
                dtype=INDEX_DTYPE, mode="w+", shape=(nnz,),
            )
            vals = np.memmap(
                os.path.join(staging, "values.bin"),
                dtype=VALUE_DTYPE, mode="w+", shape=(nnz,),
            )
        else:
            open(os.path.join(staging, "col_indices.bin"), "wb").close()
            open(os.path.join(staging, "values.bin"), "wb").close()
            indices = np.empty(0, dtype=INDEX_DTYPE)
            vals = np.empty(0, dtype=VALUE_DTYPE)
        cursor = offsets[:-1].astype(INDEX_DTYPE)  # next free slot per row
        lowest_touched = n_rows
        highest_touched = 0
        for rows, cols, values in chunks():
            if rows.size == 0:
                continue
            if cols.size and (int(cols.min()) < 0 or int(cols.max()) >= n_cols):
                raise FormatError(
                    f"column indices out of bounds for {n_cols} cols: "
                    f"[{int(cols.min())}, {int(cols.max())}]"
                )
            # Stable per-chunk scatter: entries of one row within a
            # chunk land in stream order because the cumsum-of-bincount
            # offset trick enumerates them in order.
            order = np.argsort(rows, kind="stable")
            sorted_rows = rows[order]
            starts = cursor[sorted_rows]
            boundary = np.empty(sorted_rows.size, dtype=bool)
            boundary[0] = True
            boundary[1:] = sorted_rows[1:] != sorted_rows[:-1]
            run_start = np.maximum.accumulate(
                np.where(boundary, np.arange(sorted_rows.size, dtype=INDEX_DTYPE), 0)
            )
            positions = starts + (
                np.arange(sorted_rows.size, dtype=INDEX_DTYPE) - run_start
            )
            indices[positions] = cols[order]
            vals[positions] = values[order]
            np.add.at(cursor, sorted_rows[boundary], np.diff(
                np.append(np.flatnonzero(boundary), sorted_rows.size)
            ).astype(INDEX_DTYPE))
            lowest_touched = min(lowest_touched, int(sorted_rows[0]))
            highest_touched = max(highest_touched, int(sorted_rows[-1]) + 1)
        if not np.array_equal(cursor, offsets[1:]):
            raise FormatError(
                "chunk stream changed between passes (row counts disagree)"
            )
        # Within-row column sort, one bounded row block at a time.
        _sort_rows_in_place(
            offsets, indices, vals, n_cols, lowest_touched, highest_touched
        )
        if nnz:
            indices.flush()
            vals.flush()
        offsets.flush()
        matrix = CSRMatrix.from_verified_arrays(
            n_rows, n_cols, np.asarray(offsets), np.asarray(indices), np.asarray(vals)
        )
        hashes = {name: _array_sha256(os.path.join(staging, name)) for name in _ARRAY_FILES}
        payload: Dict[str, object] = {
            "format": "csr-memmap",
            "version": MEMMAP_FORMAT_VERSION,
            "n_rows": n_rows,
            "n_cols": n_cols,
            "nnz": nnz,
            "index_dtype": np.dtype(INDEX_DTYPE).str,
            "value_dtype": np.dtype(VALUE_DTYPE).str,
            "array_bytes": {
                "row_offsets.bin": (n_rows + 1) * np.dtype(INDEX_DTYPE).itemsize,
                "col_indices.bin": nnz * np.dtype(INDEX_DTYPE).itemsize,
                "values.bin": nnz * np.dtype(VALUE_DTYPE).itemsize,
            },
            "array_sha256": hashes,
            "extra": dict(extra_meta or {}),
        }
        atomic_write_payload(os.path.join(staging, META_FILENAME), payload)
        del matrix, offsets, indices, vals, cursor
        if os.path.isdir(directory):
            shutil.rmtree(directory)
        os.makedirs(os.path.dirname(os.path.abspath(directory)), exist_ok=True)
        os.replace(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return load_csr_memmap(directory, mode="r")


def stream_row_blocks(
    offsets: np.ndarray, n_rows: int, max_entries: int = _COPY_CHUNK
) -> Iterator[Tuple[int, int]]:
    """Row ranges ``[lo, hi)`` whose entry counts stay under the budget.

    ``offsets`` is any non-decreasing prefix sum with ``n_rows + 1``
    entries (CSR row offsets, or per-group access counts).  Each block
    is the longest run of rows from ``lo`` that fits, found by one
    binary search.  A single row larger than the budget becomes its own
    block — it must materialize whole anyway.
    """
    bounds = offsets[: n_rows + 1]
    row = 0
    while row < n_rows:
        limit = int(bounds[row]) + max_entries
        end_row = int(np.searchsorted(bounds, limit, side="right")) - 1
        end_row = min(max(end_row, row + 1), n_rows)
        yield row, end_row
        row = end_row


def coo_chunks_from_csr(matrix: CSRMatrix, drop_loops: bool = False):
    """Replayable COO chunk stream over a CSR's entries, by row block.

    Suitable as the ``chunks`` argument of :func:`csr_from_coo_chunks`;
    each replay walks the rows afresh, so memmap-backed inputs stream
    without staying resident.
    """

    def chunks() -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        offsets = matrix.row_offsets
        for row_lo, row_hi in stream_row_blocks(offsets, matrix.n_rows):
            start = int(offsets[row_lo])
            stop = int(offsets[row_hi])
            if stop == start:
                continue
            cols = np.asarray(matrix.col_indices[start:stop])
            vals = np.asarray(matrix.values[start:stop])
            rows = np.repeat(
                np.arange(row_lo, row_hi, dtype=INDEX_DTYPE),
                np.diff(np.asarray(offsets[row_lo: row_hi + 1], dtype=INDEX_DTYPE)),
            )
            if drop_loops:
                keep = rows != cols
                if not keep.all():
                    rows, cols, vals = rows[keep], cols[keep], vals[keep]
            yield rows, cols, vals

    return chunks


def _mirrored_chunks(matrix: CSRMatrix):
    """Each loop-free row block twice: forward and transposed."""
    base = coo_chunks_from_csr(matrix, drop_loops=True)

    def chunks() -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for rows, cols, vals in base():
            yield rows, cols, vals
            yield cols, rows, vals

    return chunks


def _deduped_chunks(matrix: CSRMatrix):
    """Adjacent duplicate ``(row, col)`` runs summed, per row block.

    Correct only for row-major inputs with columns sorted within rows
    (what :func:`csr_from_coo_chunks` produces): duplicates are then
    adjacent and never straddle the row-aligned blocks.
    """
    base = coo_chunks_from_csr(matrix)

    def chunks() -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for rows, cols, vals in base():
            boundary = np.empty(rows.size, dtype=bool)
            boundary[0] = True
            boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(boundary)
            yield rows[starts], cols[starts], np.add.reduceat(vals, starts)

    return chunks


def symmetrize_to_memmap(
    matrix: CSRMatrix, directory: str, extra_meta: Optional[Dict[str, object]] = None
) -> CSRMatrix:
    """Out-of-core ``A + A^T``: loops dropped, duplicate entries summed.

    The memmap equivalent of ``drop_self_loops`` + ``symmetrize`` from
    :mod:`repro.sparse.ops` — the exact pipeline ``Graph.to_undirected``
    runs — built in bounded row blocks via two
    :func:`csr_from_coo_chunks` passes: first the mirrored (undeduped)
    stream lands in a scratch directory so reciprocal entries become
    adjacent, then the dedup-merge stream builds the final matrix.

    Matches ``to_undirected`` bit-for-bit when the input has no
    duplicate ``(row, col)`` entries (every CSR built here): each output
    value sums at most two duplicates, and IEEE addition of two
    operands is commutative.  Inputs *with* duplicates may differ in
    the last ulp because the summation association differs.
    """
    if matrix.n_rows != matrix.n_cols:
        raise FormatError(
            f"symmetrize needs a square matrix, got {matrix.n_rows}x{matrix.n_cols}"
        )
    n = matrix.n_rows
    scratch = unique_tmp_path(directory + ".sym")
    try:
        undeduped = csr_from_coo_chunks(_mirrored_chunks(matrix), n, n, scratch)
        result = csr_from_coo_chunks(
            _deduped_chunks(undeduped), n, n, directory, extra_meta=extra_meta
        )
        del undeduped
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result


def _sort_rows_in_place(
    offsets: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    n_cols: int,
    row_lo: int,
    row_hi: int,
) -> None:
    """Stable-sort each row's entries by column, in bounded blocks.

    Processes runs of rows whose combined nnz stays under the copy
    chunk, sorting each block with one :func:`row_major_order` —
    equivalent to per-row sorting because rows are disjoint key groups.
    """
    span = offsets[row_lo: row_hi + 1]
    for lo, hi in stream_row_blocks(span, row_hi - row_lo):
        start = int(span[lo])
        stop = int(span[hi])
        if stop > start:
            # Block-relative rows keep the packed sort keys narrow.
            block_rows = np.repeat(
                np.arange(hi - lo, dtype=INDEX_DTYPE), np.diff(span[lo: hi + 1])
            )
            block_cols = np.asarray(indices[start:stop])
            order = row_major_order(block_rows, block_cols, n_cols)
            indices[start:stop] = block_cols[order]
            values[start:stop] = np.asarray(values[start:stop])[order]
