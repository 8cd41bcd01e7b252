"""Vectorized community-detection engine.

The array-backed RABBIT detector that
:func:`repro.community.rabbit_communities` runs.  It reproduces the
dict-per-root oracle ``repro.community.rabbit._rabbit_reference``
bit-for-bit — same float accumulation order, same tie-breaking, same
merge bookkeeping — as the differential suite
(``tests/test_reorder_fast.py``) and ``repro bench-reorder`` check.
"""

from repro.community.fast.rabbit import rabbit_communities_fast

__all__ = ["rabbit_communities_fast"]
