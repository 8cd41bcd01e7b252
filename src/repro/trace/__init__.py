"""Memory-trace generation for the sparse kernels.

The cache simulator consumes line-granular access traces.  This package
lays out the kernel's arrays in a virtual address space
(:mod:`repro.trace.layout`) and walks them exactly as the kernels in
:mod:`repro.sparse.kernels` do: CSR arrays and the output stream in
order, the input vector (or dense matrix) gathered through the column
indices — Algorithm 1 of the paper.  Consecutive accesses to the same
line are collapsed (they hit trivially and only slow the simulator).
A :class:`KernelTrace` yields its trace in blocks; the SpGEMM trace,
which grows with flops, is built lazily one bounded block at a time.
"""

from repro.trace.layout import AddressSpace, Region
from repro.trace.kernel_traces import (
    KernelTrace,
    spgemm_csr_structure,
    spgemm_csr_trace,
    spmm_csr_trace,
    spmv_coo_trace,
    spmv_csr_trace,
)
from repro.trace.kernelspec import KernelSpec, kernel_kinds, register_kernel
from repro.trace.tiled import spmv_csr_tiled_trace

__all__ = [
    "AddressSpace",
    "KernelSpec",
    "KernelTrace",
    "Region",
    "kernel_kinds",
    "register_kernel",
    "spgemm_csr_structure",
    "spgemm_csr_trace",
    "spmm_csr_trace",
    "spmv_coo_trace",
    "spmv_csr_trace",
    "spmv_csr_tiled_trace",
]
