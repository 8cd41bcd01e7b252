"""Matrix Market reader/writer."""

import io
import zlib

import numpy as np
import pytest

from repro.errors import FormatError
from repro.graphs.io import (
    iter_matrix_market_chunks,
    mtx_to_memmap_csr,
    read_matrix_market,
    write_matrix_market,
)


GENERAL = """%%MatrixMarket matrix coordinate real general
% a comment
3 3 3
1 2 1.5
2 3 -2.0
3 1 0.25
"""

SYMMETRIC = """%%MatrixMarket matrix coordinate real symmetric
3 3 2
2 1 1.0
3 3 4.0
"""

PATTERN = """%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 1
"""


class TestRead:
    def test_general(self):
        coo = read_matrix_market(io.StringIO(GENERAL))
        assert coo.shape == (3, 3)
        assert coo.nnz == 3
        assert coo.to_dense()[0, 1] == pytest.approx(1.5)
        assert coo.to_dense()[1, 2] == pytest.approx(-2.0)

    def test_symmetric_expansion(self):
        coo = read_matrix_market(io.StringIO(SYMMETRIC))
        dense = coo.to_dense()
        assert dense[1, 0] == 1.0 and dense[0, 1] == 1.0
        assert dense[2, 2] == 4.0  # diagonal not duplicated
        assert coo.nnz == 3

    def test_pattern_values_are_one(self):
        coo = read_matrix_market(io.StringIO(PATTERN))
        assert np.array_equal(coo.values, [1.0, 1.0])

    def test_bad_header(self):
        with pytest.raises(FormatError):
            read_matrix_market(io.StringIO("nope\n1 1 0\n"))

    def test_unsupported_format(self):
        with pytest.raises(FormatError):
            read_matrix_market(
                io.StringIO("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
            )

    def test_unsupported_field(self):
        with pytest.raises(FormatError):
            read_matrix_market(
                io.StringIO("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
            )

    def test_truncated_file(self):
        with pytest.raises(FormatError):
            read_matrix_market(
                io.StringIO("%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n")
            )

    def test_missing_size_line(self):
        with pytest.raises(FormatError):
            read_matrix_market(
                io.StringIO("%%MatrixMarket matrix coordinate real general\n")
            )


class TestNegativeSizes:
    """A negative size on the size line is rejected with its location."""

    @pytest.fixture(params=["3 3 -1", "-3 3 0", "3 -3 0"])
    def negative(self, request, tmp_path):
        path = tmp_path / "negative.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment\n"
            f"{request.param}\n"
            "1 1 1.0\n"
        )
        return str(path), f"{path}:3: negative size in size line {request.param!r}"

    def test_read_matrix_market(self, negative):
        path, message = negative
        with pytest.raises(FormatError) as err:
            read_matrix_market(path)
        assert str(err.value) == message

    def test_iter_matrix_market_chunks(self, negative):
        path, message = negative
        with pytest.raises(FormatError) as err:
            list(iter_matrix_market_chunks(path, chunk_entries=2))
        assert str(err.value) == message

    def test_mtx_to_memmap_csr(self, negative, tmp_path):
        path, message = negative
        with pytest.raises(FormatError) as err:
            mtx_to_memmap_csr(path, str(tmp_path / "csr"))
        assert str(err.value) == message


class TestRoundTrip:
    def test_stream_round_trip(self, small_coo):
        buffer = io.StringIO()
        write_matrix_market(small_coo, buffer, comment="round trip")
        buffer.seek(0)
        assert read_matrix_market(buffer) == small_coo

    def test_write_read_file(self, tmp_path, small_coo):
        path = tmp_path / "matrix.mtx"
        write_matrix_market(small_coo, str(path))
        assert read_matrix_market(str(path)) == small_coo

    def test_corpus_entry_roundtrip(self, tmp_path):
        from repro.graphs.corpus import load_matrix

        matrix = load_matrix("test-mesh")
        path = tmp_path / "mesh.mtx"
        write_matrix_market(matrix, str(path))
        assert read_matrix_market(str(path)) == matrix


# Inputs off the clean path, each with what ``read_matrix_market`` makes
# of it: ``(shape, rows, cols, values)``, or the exact error text.
ODDBALLS = [
    # Interleaved comments/blank lines among entries.
    (
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n% c\n1 1 1.0\n\n2 2 2.0\n",
        ((2, 2), [0, 1], [0, 1], [1.0, 2.0]),
    ),
    # Extra tokens per entry are tolerated.
    (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 extra\n",
        ((2, 2), [0], [0], [1.0]),
    ),
    # Ragged entry.
    (
        "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2 9\n1\n",
        "<stream>:4: malformed pattern entry: '1'",
    ),
    # Python-only integer spellings.
    (
        "%%MatrixMarket matrix coordinate real general\n12 12 1\n1_0 1 1.0\n",
        ((12, 12), [9], [0], [1.0]),
    ),
    # Trailing junk after the declared entries is ignored.
    (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 9.0\n",
        ((2, 2), [0], [0], [1.0]),
    ),
    # CRLF endings and tab separators.
    (
        "%%MatrixMarket matrix coordinate real general\r\n2 2 1\r\n1 1 1.0\r\n",
        ((2, 2), [0], [0], [1.0]),
    ),
    (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\t1\t1.0\n",
        ((2, 2), [0], [0], [1.0]),
    ),
    # Zero-entry matrix.
    (
        "%%MatrixMarket matrix coordinate real general\n4 5 0\n",
        ((4, 5), [], [], []),
    ),
    # Exponent/float spellings in integer coordinate columns.
    (
        "%%MatrixMarket matrix coordinate real general\n1200 1200 1\n1e3 1 1.0\n",
        "<stream>:3: non-integer coordinate in entry '1e3 1 1.0': "
        "invalid literal for int() with base 10: '1e3'",
    ),
    (
        "%%MatrixMarket matrix coordinate real general\n12 12 1\n2.0 1 1.0\n",
        "<stream>:3: non-integer coordinate in entry '2.0 1 1.0': "
        "invalid literal for int() with base 10: '2.0'",
    ),
    # Mid-line '%' and '#' are data, not comments.
    (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.0%x\n",
        "<stream>:3: non-numeric value in entry '1 2 3.0%x': "
        "could not convert string to float: '3.0%x'",
    ),
    (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.0#x 4\n",
        "<stream>:3: non-numeric value in entry '1 2 3.0#x 4': "
        "could not convert string to float: '3.0#x'",
    ),
]


class TestBulkParserDifferential:
    """Exact matrices or error texts for every field x symmetry pair and
    for inputs off the clean path."""

    @pytest.mark.parametrize("field", ["real", "integer", "pattern"])
    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_field_symmetry_grid(self, field, symmetry):
        rng = np.random.default_rng(zlib.crc32(f"{field}-{symmetry}".encode()))
        n = 24
        lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}"]
        entries = []
        expected = []
        for _ in range(60):
            r = int(rng.integers(1, n + 1))
            c = int(rng.integers(1, r + 1)) if symmetry == "symmetric" else int(
                rng.integers(1, n + 1)
            )
            if field == "pattern":
                v = 1.0
                entries.append(f"{r} {c}")
            elif field == "integer":
                v = float(rng.integers(-9, 9))
                entries.append(f"{r} {c} {int(v)}")
            else:
                v = float(rng.standard_normal())
                entries.append(f"{r} {c} {v:.17g}")
            expected.append((r - 1, c - 1, v))
            if symmetry == "symmetric" and r != c:
                expected.append((c - 1, r - 1, v))  # mirror right after
        lines.append(f"{n} {n} {len(entries)}")
        lines.extend(entries)
        coo = read_matrix_market(io.StringIO("\n".join(lines) + "\n"))
        assert coo.shape == (n, n)
        assert list(zip(coo.rows.tolist(), coo.cols.tolist(), coo.values.tolist())) == expected

    def test_symmetric_mirrors_interleaved(self):
        # Each mirror immediately follows its entry in the COO order.
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n"
            "2 1 1.5\n"
            "2 2 4.0\n"
            "3 1 -2.5\n"
        )
        coo = read_matrix_market(io.StringIO(text))
        assert coo.rows.tolist() == [1, 0, 1, 2, 0]
        assert coo.cols.tolist() == [0, 1, 1, 0, 2]
        assert coo.values.tolist() == [1.5, 1.5, 4.0, -2.5, -2.5]

    @pytest.mark.parametrize(
        "text, expected", ODDBALLS, ids=[text for text, _ in ODDBALLS]
    )
    def test_oddball_inputs_match_reference(self, text, expected):
        if isinstance(expected, str):
            with pytest.raises(FormatError) as err:
                read_matrix_market(io.StringIO(text))
            assert str(err.value) == expected
            return
        coo = read_matrix_market(io.StringIO(text))
        shape, rows, cols, values = expected
        assert coo.shape == shape
        assert coo.rows.tolist() == rows
        assert coo.cols.tolist() == cols
        assert coo.values.tolist() == values

    def test_ragged_lines_fall_back(self):
        # Divisible token count but misaligned columns: the chunk must
        # not parse silently; the line parser rejects line 4.
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "9 9 2\n"
            "1 2 3\n"
            "4\n"
        )
        with pytest.raises(FormatError, match=r":4: "):
            read_matrix_market(io.StringIO(text))


class TestErrorLocations:
    """Parse errors name the source path and 1-based line number."""

    def test_bad_entry_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment\n"
            "2 2 2\n"
            "1 1 3.5\n"
            "2 oops 1.0\n"
        )
        with pytest.raises(FormatError, match=rf"{path}:5: "):
            read_matrix_market(str(path))

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "bad-value.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "1 1 1\n"
            "1 1 zero\n"
        )
        with pytest.raises(FormatError, match=rf"{path}:3: non-numeric value"):
            read_matrix_market(str(path))

    def test_bad_size_line_names_line(self, tmp_path):
        path = tmp_path / "bad-size.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment line\n"
            "two by two\n"
        )
        with pytest.raises(FormatError, match=rf"{path}:3: "):
            read_matrix_market(str(path))

    def test_truncated_file_names_last_line(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 3\n"
            "1 1 1.0\n"
        )
        with pytest.raises(FormatError, match=rf"{path}:3: file ended after 1 of 3"):
            read_matrix_market(str(path))

    def test_stream_errors_use_stream_marker(self):
        bad = io.StringIO("%%MatrixMarket matrix coordinate real general\n1 1\n")
        with pytest.raises(FormatError, match=r"<stream>:2: "):
            read_matrix_market(bad)

    def test_bad_header_is_line_one(self):
        with pytest.raises(FormatError, match=r"<stream>:1: not a Matrix Market"):
            read_matrix_market(io.StringIO("garbage\n"))


class TestChunkedReader:
    """iter_matrix_market_chunks / mtx_to_memmap_csr vs read_matrix_market."""

    def write_random_mtx(self, path, n, nnz, seed, symmetry="general"):
        rng = np.random.default_rng(seed)
        if symmetry == "symmetric":
            rows = rng.integers(1, n + 1, size=nnz)
            cols = rng.integers(1, n + 1, size=nnz)
            rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
        else:
            rows = rng.integers(1, n + 1, size=nnz)
            cols = rng.integers(1, n + 1, size=nnz)
        values = rng.normal(size=nnz)
        with open(path, "w") as handle:
            handle.write(f"%%MatrixMarket matrix coordinate real {symmetry}\n")
            handle.write("% generated for the chunked-reader tests\n")
            handle.write(f"{n} {n} {nnz}\n")
            for r, c, v in zip(rows, cols, values):
                handle.write(f"{r} {c} {float(v)!r}\n")

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    @pytest.mark.parametrize("chunk_entries", [3, 16, 10_000])
    def test_chunks_concatenate_to_reference(self, tmp_path, symmetry, chunk_entries):
        path = tmp_path / "m.mtx"
        self.write_random_mtx(str(path), 12, 40, seed=9, symmetry=symmetry)
        reference = read_matrix_market(str(path))
        rows, cols, values = [], [], []
        for r, c, v in iter_matrix_market_chunks(str(path), chunk_entries=chunk_entries):
            rows.append(r)
            cols.append(c)
            values.append(v)
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        values = np.concatenate(values)
        order = np.lexsort((cols, rows))
        ref_order = np.lexsort((reference.cols, reference.rows))
        assert np.array_equal(rows[order], reference.rows[ref_order])
        assert np.array_equal(cols[order], reference.cols[ref_order])
        assert np.array_equal(values[order], reference.values[ref_order])

    def test_read_matrix_market_concatenates_chunks(self, tmp_path, monkeypatch):
        path = tmp_path / "m.mtx"
        self.write_random_mtx(str(path), 12, 40, seed=3, symmetry="symmetric")
        whole = read_matrix_market(str(path))
        monkeypatch.setattr("repro.graphs.io.DEFAULT_CHUNK_ENTRIES", 3)
        chunked = read_matrix_market(str(path))
        assert np.array_equal(chunked.rows, whole.rows)
        assert np.array_equal(chunked.cols, whole.cols)
        assert np.array_equal(chunked.values, whole.values)

    def test_comment_between_chunks_keeps_chunk_sizes(self, tmp_path):
        path = tmp_path / "comment.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "5 5 5\n"
            "1 1 1.0\n"
            "2 2 2.0\n"
            "% between the first and the second chunk\n"
            "3 3 3.0\n"
            "4 4 4.0\n"
            "5 5 5.0\n"
        )
        chunks = [
            (r.tolist(), c.tolist(), v.tolist())
            for r, c, v in iter_matrix_market_chunks(str(path), chunk_entries=2)
        ]
        assert chunks == [
            ([0, 1], [0, 1], [1.0, 2.0]),
            ([2, 3], [2, 3], [3.0, 4.0]),
            ([4], [4], [5.0]),
        ]

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_blank_only_chunk_parses_without_warning(self, tmp_path):
        # np.loadtxt warns on a chunk with no data; such a chunk must
        # reach the line parser instead.
        path = tmp_path / "blanks.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2\n"
            "\n"
            "   \n"
            "1 1 1.0\n"
            "2 2 2.0\n"
        )
        chunks = list(iter_matrix_market_chunks(str(path), chunk_entries=2))
        assert [r.tolist() for r, _, _ in chunks] == [[0, 1]]
        assert read_matrix_market(str(path)).rows.tolist() == [0, 1]

    def test_header_scan(self, tmp_path):
        from repro.graphs.io import scan_matrix_market_header

        path = tmp_path / "m.mtx"
        self.write_random_mtx(str(path), 7, 11, seed=1)
        header = scan_matrix_market_header(str(path))
        assert (header.n_rows, header.n_cols, header.n_entries) == (7, 7, 11)
        assert header.field == "real"
        assert header.symmetry == "general"

    @pytest.mark.parametrize("chunk_entries", [2, 5, 10_000])
    def test_mtx_to_memmap_matches_read_matrix_market(self, tmp_path, chunk_entries):
        from repro.sparse.convert import coo_to_csr
        from repro.sparse.memmap import is_memmap_backed

        path = tmp_path / "m.mtx"
        self.write_random_mtx(str(path), 10, 30, seed=2, symmetry="symmetric")
        reference = coo_to_csr(read_matrix_market(str(path)))
        built = mtx_to_memmap_csr(
            str(path), str(tmp_path / "csr"), chunk_entries=chunk_entries
        )
        assert is_memmap_backed(built)
        assert np.array_equal(built.row_offsets, reference.row_offsets)
        assert np.array_equal(built.col_indices, reference.col_indices)
        assert np.array_equal(built.values, reference.values)


class TestChunkedErrorParity:
    """The chunked reader reports byte-identical errors to read_matrix_market.

    The regression that matters: a corrupt entry mid-file must name the
    exact path:lineno even when it sits in the middle of a later chunk
    of a multi-chunk read.
    """

    def drain(self, path, chunk_entries):
        for _ in iter_matrix_market_chunks(path, chunk_entries=chunk_entries):
            pass

    def both_errors(self, path, chunk_entries):
        with pytest.raises(FormatError) as line_err:
            read_matrix_market(path)
        with pytest.raises(FormatError) as chunk_err:
            self.drain(path, chunk_entries)
        return str(line_err.value), str(chunk_err.value)

    def test_corrupt_entry_mid_file_names_exact_line(self, tmp_path):
        path = tmp_path / "corrupt.mtx"
        lines = [
            "%%MatrixMarket matrix coordinate real general",
            "% padding comment",
            "40 40 40",
        ]
        entries = [f"{i + 1} {i + 1} 1.0" for i in range(40)]
        entries[23] = "24 oops 1.0"  # physical line 27, inside chunk 3 of 8
        path.write_text("\n".join(lines + entries) + "\n")
        line_msg, chunk_msg = self.both_errors(str(path), chunk_entries=5)
        assert line_msg == chunk_msg
        assert f"{path}:27: " in chunk_msg

    def test_truncation_count_matches_including_mirrors(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "9 9 40\n"
            + "".join(f"{i + 2} {i + 1} 1.0\n" for i in range(8))
        )
        line_msg, chunk_msg = self.both_errors(str(path), chunk_entries=3)
        assert line_msg == chunk_msg
        assert "file ended after 16 of 40" in chunk_msg  # mirrors counted

    def test_malformed_entry_outranks_truncation(self, tmp_path):
        path = tmp_path / "both.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "5 5 9\n"
            "1 1 1.0\n"
            "2 nope 1.0\n"
        )
        line_msg, chunk_msg = self.both_errors(str(path), chunk_entries=4)
        assert line_msg == chunk_msg
        assert f"{path}:4: " in chunk_msg

    def test_out_of_bounds_entry_names_its_line(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 3\n"
            "1 1 1.0\n"
            "2 2 1.0\n"
            "9 1 1.0\n"
        )
        line_msg, chunk_msg = self.both_errors(str(path), chunk_entries=2)
        assert line_msg == chunk_msg
        assert chunk_msg == f"{path}:5: entry out of bounds for 3x3 matrix: '9 1 1.0'"

    def test_preamble_errors_identical(self, tmp_path):
        path = tmp_path / "preamble.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real diagonal\n1 1 1\n")
        line_msg, chunk_msg = self.both_errors(str(path), chunk_entries=4)
        assert line_msg == chunk_msg
