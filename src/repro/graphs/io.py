"""Matrix Market (``.mtx``) reader and writer.

SuiteSparse — the paper's main matrix repository — distributes matrices
in the Matrix Market exchange format, so the corpus tooling can both
export its synthetic matrices and ingest real SuiteSparse downloads
when they are available.  Supports the ``coordinate`` format with
``real``, ``integer`` and ``pattern`` fields and ``general`` or
``symmetric`` symmetry.

One parser serves every reader.  It takes the entry lines a chunk at a
time and hands each chunk to ``np.loadtxt``.  A chunk that ``loadtxt``
cannot take whole (blank or comment lines, ragged or malformed entries,
a short file) is re-read line by line, which either copes with the
oddity or raises :class:`FormatError` naming the offending line.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from repro.errors import FormatError
from repro.sparse.coo import COOMatrix

PathOrFile = Union[str, "os.PathLike[str]", TextIO]

_FIELDS = ("real", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric")

#: Entries per chunk for :func:`iter_matrix_market_chunks`.  1M entries
#: keeps the resident text + parsed arrays around ~100 MB regardless of
#: file size.
DEFAULT_CHUNK_ENTRIES = 1 << 20


def read_matrix_market(source: PathOrFile) -> COOMatrix:
    """Parse a Matrix Market coordinate file into a :class:`COOMatrix`.

    Symmetric files are expanded: every off-diagonal entry is followed
    by its mirrored entry, matching SuiteSparse semantics.

    The entries are parsed :data:`DEFAULT_CHUNK_ENTRIES` at a time by
    the parser behind :func:`iter_matrix_market_chunks`, and the chunks
    are concatenated.  Parse failures and out-of-bounds entries raise
    :class:`FormatError` prefixed with the source path and the 1-based
    line number of the offending line (``corpus/web.mtx:48312: ...``),
    so a bad file in a corpus-scale load is actionable without
    bisecting it by hand.
    """
    if hasattr(source, "read"):
        name = getattr(source, "name", None) or "<stream>"
        return _read_handle(source, str(name))  # type: ignore[arg-type]
    path = os.fspath(source)  # type: ignore[arg-type]
    with open(path, "r", encoding="utf-8") as handle:
        return _read_handle(handle, path)


def _read_handle(handle: TextIO, source: str) -> COOMatrix:
    header, lineno = _parse_preamble(handle, source)
    chunks = _iter_entries(handle, header, lineno, source, DEFAULT_CHUNK_ENTRIES)
    # The leading empty arrays fix the dtypes when there are no chunks.
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
    rows, cols, values = (np.concatenate(column) for column in zip(empty, *chunks))
    return COOMatrix(header.n_rows, header.n_cols, rows, cols, values)


def _expand_symmetric(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand mirrors *interleaved*: each off-diagonal entry is
    immediately followed by its transpose, entry for entry in file
    order."""
    entry = np.repeat(np.arange(rows.size, dtype=np.int64), 1 + (rows != cols))
    mirror = np.zeros(entry.size, dtype=bool)
    mirror[1:] = entry[1:] == entry[:-1]
    out_rows = rows[entry]
    out_cols = cols[entry]
    out_rows[mirror] = cols[entry[mirror]]
    out_cols[mirror] = rows[entry[mirror]]
    return out_rows, out_cols, values[entry]


@dataclass(frozen=True)
class MtxHeader:
    """Parsed Matrix Market preamble (banner + size line)."""

    field: str
    symmetry: str
    n_rows: int
    n_cols: int
    n_entries: int


def _parse_preamble(handle: TextIO, source: str) -> Tuple[MtxHeader, int]:
    """Parse banner + size line; the single source of preamble errors.

    Returns the header and the 1-based number of the size line, from
    which the entry lines are numbered.
    """
    lineno = 1

    def fail(message: str) -> FormatError:
        return FormatError(f"{source}:{lineno}: {message}")

    header = handle.readline()
    if not header.startswith("%%MatrixMarket"):
        raise fail(f"not a Matrix Market file (header: {header.strip()!r})")
    tokens = header.strip().split()
    if len(tokens) != 5:
        raise fail(f"malformed Matrix Market header: {header.strip()!r}")
    _, object_kind, fmt, field, symmetry = (token.lower() for token in tokens)
    if object_kind != "matrix" or fmt != "coordinate":
        raise fail(
            f"only 'matrix coordinate' files are supported, got {object_kind} {fmt}"
        )
    if field not in _FIELDS:
        raise fail(f"unsupported field {field!r}; supported: {_FIELDS}")
    if symmetry not in _SYMMETRIES:
        raise fail(f"unsupported symmetry {symmetry!r}; supported: {_SYMMETRIES}")

    for line in handle:
        lineno += 1
        size_line = line.strip()
        if size_line and size_line[0] != "%":
            break
    else:
        raise fail("missing size line")
    parts = size_line.split()
    if len(parts) != 3:
        raise fail(f"malformed size line: {size_line!r}")
    try:
        n_rows, n_cols, n_entries = (int(part) for part in parts)
    except ValueError as exc:
        raise fail(f"non-integer size line {size_line!r}: {exc}") from exc
    if min(n_rows, n_cols, n_entries) < 0:
        raise fail(f"negative size in size line {size_line!r}")
    return MtxHeader(field, symmetry, n_rows, n_cols, n_entries), lineno


def _parse_entry(line: str, field: str) -> Tuple[int, int, float]:
    """Parse one data line; the single source of per-entry errors.

    Raises an *unprefixed* :class:`FormatError`; the caller re-raises it
    with the ``source:lineno`` prefix.
    """
    fields = line.split()
    if field == "pattern":
        if len(fields) < 2:
            raise FormatError(f"malformed pattern entry: {line!r}")
        value = 1.0
    else:
        if len(fields) < 3:
            raise FormatError(f"malformed entry: {line!r}")
        try:
            value = float(fields[2])
        except ValueError as exc:
            raise FormatError(f"non-numeric value in entry {line!r}: {exc}") from exc
    try:
        row = int(fields[0]) - 1
        col = int(fields[1]) - 1
    except ValueError as exc:
        raise FormatError(f"non-integer coordinate in entry {line!r}: {exc}") from exc
    return row, col, value


def _load_clean_chunk(lines: List[str], take: int, dtype: list) -> Optional[np.ndarray]:
    """``np.loadtxt`` of ``take`` entry lines, or None if they are not clean.

    The structured dtype parses each column strictly: an integer column
    rejects ``1e3`` or ``2.0``, and a ragged line rejects the chunk, so
    an irregular line never misaligns the columns.  ``comments=None``
    keeps a stray ``#`` from truncating a line the line parser would
    reject.  A chunk that starts with a blank or comment line skips
    ``loadtxt``, which warns when a chunk holds no data.
    """
    if len(lines) < take:
        return None  # end of file: the line parser reports the truncation
    first = lines[0].strip()
    if not first or first[0] == "%":
        return None
    try:
        table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    # Fewer rows than lines means loadtxt skipped blank lines.
    return table if table.shape[0] == take else None


def _iter_entries(
    handle: TextIO, header: MtxHeader, lineno: int, source: str, chunk_entries: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the declared entries as 0-based ``(rows, cols, values)`` chunks.

    ``lineno`` is the number of the size line.  Each chunk holds the
    next ``min(chunk_entries, remaining)`` entries, expanded with
    interleaved mirrors when the file is symmetric.  Lines after the
    last declared entry are never read.
    """
    dtype = [("row", np.int64), ("col", np.int64), ("value", np.float64)]
    if header.field == "pattern":
        dtype = dtype[:2]
    remaining = header.n_entries
    expanded = 0  # entries yielded so far, mirrors included
    while remaining > 0:
        take = min(remaining, chunk_entries)
        lines = list(itertools.islice(handle, take))
        linenos: Sequence[int] = range(lineno + 1, lineno + 1 + take)
        table = _load_clean_chunk(lines, take, dtype)
        if table is not None:
            lineno += take
            rows = table["row"] - 1
            cols = table["col"] - 1
            values = np.ones(take) if header.field == "pattern" else table["value"]
        else:
            # Reparse in order so the *first* offending line wins, and
            # read on past blank and comment lines until the chunk holds
            # ``take`` entries or the file ends.  From here on ``lines``
            # and ``linenos`` hold the entry lines alone.
            raw, lines, linenos = lines, [], []
            rows_list: List[int] = []
            cols_list: List[int] = []
            values_list: List[float] = []
            for line in itertools.chain(raw, handle):
                lineno += 1
                line = line.strip()
                if not line or line[0] == "%":
                    continue
                try:
                    row, col, value = _parse_entry(line, header.field)
                except FormatError as exc:
                    raise FormatError(f"{source}:{lineno}: {exc}") from exc
                rows_list.append(row)
                cols_list.append(col)
                values_list.append(value)
                lines.append(line)
                linenos.append(lineno)
                if len(lines) == take:
                    break
            if len(lines) < take:
                found = expanded + len(lines)
                if header.symmetry == "symmetric":
                    found += sum(r != c for r, c in zip(rows_list, cols_list))
                raise FormatError(
                    f"{source}:{lineno}: file ended after {found} of "
                    f"{header.n_entries} declared entries"
                )
            rows = np.asarray(rows_list, dtype=np.int64)
            cols = np.asarray(cols_list, dtype=np.int64)
            values = np.asarray(values_list, dtype=np.float64)
        bad = (rows < 0) | (rows >= header.n_rows) | (cols < 0) | (cols >= header.n_cols)
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            raise FormatError(
                f"{source}:{linenos[first]}: entry out of bounds for "
                f"{header.n_rows}x{header.n_cols} matrix: {lines[first].strip()!r}"
            )
        if header.symmetry == "symmetric":
            rows, cols, values = _expand_symmetric(rows, cols, values)
        expanded += rows.size
        remaining -= take
        yield rows, cols, values


def write_matrix_market(matrix: COOMatrix, destination: PathOrFile, comment: str = "") -> None:
    """Write a :class:`COOMatrix` as a general, real coordinate file."""
    if hasattr(destination, "write"):
        _write_stream(matrix, destination, comment)  # type: ignore[arg-type]
        return
    with open(destination, "w", encoding="utf-8") as handle:
        _write_stream(matrix, handle, comment)


def _write_stream(matrix: COOMatrix, handle: TextIO, comment: str) -> None:
    handle.write("%%MatrixMarket matrix coordinate real general\n")
    for line in comment.splitlines():
        handle.write(f"% {line}\n")
    handle.write(f"{matrix.n_rows} {matrix.n_cols} {matrix.nnz}\n")
    for row, col, value in zip(matrix.rows, matrix.cols, matrix.values):
        handle.write(f"{int(row) + 1} {int(col) + 1} {value:.17g}\n")


# -- chunked (out-of-core) reading --------------------------------------


def scan_matrix_market_header(path: Union[str, "os.PathLike[str]"]) -> MtxHeader:
    """Parse only the banner + size line of a ``.mtx`` file on disk."""
    source = os.fspath(path)
    with open(source, "r", encoding="utf-8") as handle:
        return _parse_preamble(handle, source)[0]


def iter_matrix_market_chunks(
    path: Union[str, "os.PathLike[str]"],
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Stream a coordinate ``.mtx`` file as ``(rows, cols, values)`` chunks.

    Never holds more than ``chunk_entries`` parsed entries (plus their
    raw text) in memory, so a scale-20 file flows through without
    materializing a :class:`COOMatrix`.  Symmetric files are expanded
    per chunk with the same interleaved mirror order as
    :func:`read_matrix_market`, and indices are 0-based on the way out.

    It shares its parser with :func:`read_matrix_market`, so both raise
    the same :class:`FormatError` text, ``source:lineno: message``: a
    corrupt entry mid-file names its physical line even when it sits
    millions of entries in.
    """
    if chunk_entries < 1:
        raise FormatError(f"chunk_entries must be positive, got {chunk_entries}")
    source = os.fspath(path)
    with open(source, "r", encoding="utf-8") as handle:
        header, lineno = _parse_preamble(handle, source)
        yield from _iter_entries(handle, header, lineno, source, chunk_entries)


def mtx_to_memmap_csr(
    path: Union[str, "os.PathLike[str]"],
    directory: str,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
    extra_meta: Optional[Dict[str, object]] = None,
):
    """Convert a ``.mtx`` file straight to an on-disk memmap CSR.

    The file is streamed twice (row histogram, then scatter) through
    :func:`iter_matrix_market_chunks`; peak memory is one chunk plus
    the memory-mapped output arrays, independent of nnz.  Entry
    ordering matches ``coo_to_csr(read_matrix_market(path))`` exactly.
    Returns the loaded memmap-backed :class:`~repro.sparse.csr.CSRMatrix`.
    """
    from repro.sparse.memmap import csr_from_coo_chunks

    header = scan_matrix_market_header(path)
    meta: Dict[str, object] = {
        "source": os.fspath(path),
        "field": header.field,
        "symmetry": header.symmetry,
        "declared_entries": header.n_entries,
    }
    meta.update(extra_meta or {})
    return csr_from_coo_chunks(
        lambda: iter_matrix_market_chunks(path, chunk_entries),
        header.n_rows,
        header.n_cols,
        directory,
        extra_meta=meta,
    )
