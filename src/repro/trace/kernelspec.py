"""Typed kernel identity with parsing, validation and a builder registry.

Experiment drivers and the public API historically identified kernels
by raw strings (``"spmv-csr"``, ``"spmm-csr-4"``) parsed ad hoc at
every call site, which let malformed names like ``"spmm-csr-0"`` or
``"spmm-csr--4"`` travel deep into the trace layer before failing.
:class:`KernelSpec` makes the kernel identity a frozen value object:
``KernelSpec.parse`` is the one documented string front-end (strict —
canonical names only), ``KernelSpec.coerce`` accepts either a spec or
a string at API boundaries, and :meth:`KernelSpec.build_trace`
constructs the memory trace for a platform through the kind registry
below.

New kernel kinds register a builder with :func:`register_kernel`;
``parametric=True`` kinds take a trailing integer parameter
(``<kind>-<k>``, ``k >= 1``) like SpMM's dense-operand width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import ValidationError
from repro.sparse.coo import COOMatrix
from repro.sparse.convert import csr_to_coo
from repro.trace.kernel_traces import (
    KernelTrace,
    spgemm_csr_trace,
    spmm_csr_trace,
    spmv_coo_trace,
    spmv_csr_trace,
)

#: builder(matrix, k, line_bytes, element_bytes, schedule, n_partitions)
TraceBuilder = Callable[..., KernelTrace]


@dataclass(frozen=True)
class _KernelKind:
    builder: TraceBuilder
    parametric: bool


_REGISTRY: Dict[str, _KernelKind] = {}


def register_kernel(kind: str, builder: TraceBuilder, parametric: bool = False) -> None:
    """Register a trace builder for kernel kind ``kind``.

    ``parametric`` kinds are spelled ``<kind>-<k>`` with a positive
    integer ``k`` forwarded to the builder.
    """
    if not kind or kind in _REGISTRY:
        raise ValidationError(f"kernel kind {kind!r} is empty or already registered")
    _REGISTRY[kind] = _KernelKind(builder=builder, parametric=parametric)


def kernel_kinds() -> Tuple[str, ...]:
    """Registered kernel kinds, parametric ones spelled ``<kind>-<k>``."""
    return tuple(
        f"{kind}-<k>" if entry.parametric else kind
        for kind, entry in sorted(_REGISTRY.items())
    )


@dataclass(frozen=True)
class KernelSpec:
    """Identity of one sparse kernel variant.

    ``name`` is the canonical spelling (``"spmm-csr-4"``), ``kind`` the
    registry key (``"spmm-csr"``) and ``k`` the integer parameter of
    parametric kinds (``None`` otherwise).  Instances are produced by
    :meth:`parse` / :meth:`coerce`; constructing one directly skips
    validation.
    """

    name: str
    kind: str
    k: Optional[int] = None

    @classmethod
    def parse(cls, name: str) -> "KernelSpec":
        """Parse a canonical kernel name, rejecting malformed spellings."""
        if not isinstance(name, str):
            raise ValidationError(f"kernel name must be a string, got {type(name).__name__}")
        entry = _REGISTRY.get(name)
        if entry is not None and not entry.parametric:
            return cls(name=name, kind=name)
        for kind, entry in _REGISTRY.items():
            if entry.parametric and name.startswith(kind + "-"):
                suffix = name[len(kind) + 1:]
                if not suffix.isdigit() or str(int(suffix)) != suffix or int(suffix) < 1:
                    raise ValidationError(
                        f"malformed kernel {name!r}: {kind}-<k> needs a positive "
                        f"integer k in canonical form (got suffix {suffix!r})"
                    )
                return cls(name=name, kind=kind, k=int(suffix))
        raise ValidationError(
            f"unknown kernel {name!r}; expected one of {', '.join(kernel_kinds())}"
        )

    @classmethod
    def coerce(cls, kernel: Union["KernelSpec", str]) -> "KernelSpec":
        """Accept a spec or a kernel-name string (API boundary helper)."""
        if isinstance(kernel, cls):
            return kernel
        return cls.parse(kernel)

    def build_trace(
        self,
        matrix,
        platform=None,
        *,
        line_bytes: Optional[int] = None,
        element_bytes: int = 4,
        schedule: str = "sequential",
        n_partitions: int = 32,
    ) -> KernelTrace:
        """Build this kernel's memory trace for ``matrix``.

        ``matrix`` is a sparse matrix in the format the kernel expects
        (a ``Graph`` is unwrapped to its adjacency CSR); the line size
        comes from ``platform`` unless ``line_bytes`` overrides it.
        """
        entry = _REGISTRY.get(self.kind)
        if entry is None:
            raise ValidationError(f"kernel kind {self.kind!r} is not registered")
        if line_bytes is None:
            line_bytes = platform.line_bytes if platform is not None else 32
        matrix = getattr(matrix, "adjacency", matrix)
        return entry.builder(
            matrix,
            k=self.k,
            line_bytes=line_bytes,
            element_bytes=element_bytes,
            schedule=schedule,
            n_partitions=n_partitions,
        )


def _build_spmv_csr(matrix, k, line_bytes, element_bytes, schedule, n_partitions):
    return spmv_csr_trace(
        matrix,
        element_bytes=element_bytes,
        line_bytes=line_bytes,
        schedule=schedule,
        n_partitions=n_partitions,
    )


def _build_spmv_coo(matrix, k, line_bytes, element_bytes, schedule, n_partitions):
    coo = matrix if isinstance(matrix, COOMatrix) else csr_to_coo(matrix)
    return spmv_coo_trace(coo, element_bytes=element_bytes, line_bytes=line_bytes)


def _build_spmm_csr(matrix, k, line_bytes, element_bytes, schedule, n_partitions):
    return spmm_csr_trace(matrix, k=k, element_bytes=element_bytes, line_bytes=line_bytes)


def _build_spgemm_csr(matrix, k, line_bytes, element_bytes, schedule, n_partitions):
    return spgemm_csr_trace(
        matrix,
        element_bytes=element_bytes,
        line_bytes=line_bytes,
        schedule=schedule,
        n_partitions=n_partitions,
    )


register_kernel("spmv-csr", _build_spmv_csr)
register_kernel("spmv-coo", _build_spmv_coo)
register_kernel("spmm-csr", _build_spmm_csr, parametric=True)
register_kernel("spgemm-csr", _build_spgemm_csr)
