"""Sparse-matrix substrate: formats, conversions, and reference kernels.

This subpackage provides the storage formats (:class:`COOMatrix`,
:class:`CSRMatrix`) and the reference sparse kernels (SpMV on CSR and
COO, SpMM on CSR) whose memory behaviour the rest of the library
analyses.  The kernels follow Algorithm 1 of the paper exactly: the CSR
arrays and the output vector stream, while the input vector is gathered
through the column-index array.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.kernels import spmm_csr, spmv_coo, spmv_csr, spmv_csr_tiled
from repro.sparse.mask import restrict_to_nodes
from repro.sparse.memmap import (
    coo_chunks_from_csr,
    csr_from_coo_chunks,
    is_memmap_backed,
    load_csr_memmap,
    save_csr_memmap,
    stream_row_blocks,
    symmetrize_to_memmap,
)
from repro.sparse.ops import (
    drop_self_loops,
    merge_duplicates,
    symmetrize,
    transpose,
)
from repro.sparse.permute import permute_symmetric

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "coo_chunks_from_csr",
    "coo_to_csr",
    "csr_from_coo_chunks",
    "csr_to_coo",
    "drop_self_loops",
    "is_memmap_backed",
    "load_csr_memmap",
    "merge_duplicates",
    "save_csr_memmap",
    "permute_symmetric",
    "restrict_to_nodes",
    "spmm_csr",
    "spmv_coo",
    "spmv_csr",
    "spmv_csr_tiled",
    "stream_row_blocks",
    "symmetrize",
    "symmetrize_to_memmap",
    "transpose",
]
