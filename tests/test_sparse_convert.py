"""Round-trip and ordering semantics of COO <-> CSR conversion."""

import numpy as np
import pytest

from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


class TestCooToCsr:
    def test_dense_equivalence(self, small_coo):
        assert np.array_equal(coo_to_csr(small_coo).to_dense(), small_coo.to_dense())

    def test_sorted_within_rows_by_default(self):
        coo = COOMatrix(2, 4, [0, 0, 0], [3, 0, 2])
        csr = coo_to_csr(coo)
        assert np.array_equal(csr.col_indices, [0, 2, 3])

    def test_rows_grouped_even_if_coo_shuffled(self):
        coo = COOMatrix(3, 3, [2, 0, 2, 1], [0, 1, 2, 2], [1.0, 2.0, 3.0, 4.0])
        csr = coo_to_csr(coo)
        assert np.array_equal(csr.row_offsets, [0, 1, 2, 4])
        assert np.array_equal(csr.row_slice(2), [0, 2])

    def test_empty_rows(self):
        coo = COOMatrix(4, 4, [3], [3])
        csr = coo_to_csr(coo)
        assert np.array_equal(csr.row_offsets, [0, 0, 0, 0, 1])

    def test_duplicates_preserved(self):
        coo = COOMatrix(1, 2, [0, 0], [1, 1], [2.0, 3.0])
        csr = coo_to_csr(coo)
        assert csr.nnz == 2
        assert csr.to_dense()[0, 1] == pytest.approx(5.0)

    def test_empty_matrix(self):
        csr = coo_to_csr(COOMatrix(0, 0, [], []))
        assert csr.nnz == 0


class TestRoundTrip:
    def test_coo_csr_coo(self, small_coo):
        back = csr_to_coo(coo_to_csr(small_coo))
        assert back == small_coo

    def test_csr_to_coo_preserves_in_row_order(self):
        csr = CSRMatrix(1, 4, [0, 3], [3, 0, 2])
        back = csr_to_coo(csr)
        assert np.array_equal(back.cols, [3, 0, 2])

    def test_rectangular_roundtrip(self):
        coo = COOMatrix(2, 5, [0, 1, 1], [4, 0, 3])
        assert csr_to_coo(coo_to_csr(coo)) == coo
