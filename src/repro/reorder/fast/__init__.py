"""Vectorized reordering engines.

Each module here is the engine one technique in :mod:`repro.reorder`
runs, and produces **bit-identical permutations** to that technique's
per-node loop oracle in ``tests/oracles/reorder.py``, as the
differential suite (``tests/test_reorder_fast.py``) checks.  The
CSR-native RABBIT detector behind
rabbit/rabbit++ lives in :mod:`repro.community.fast`.
"""
