"""Vectorized reordering engines.

Each module here is the engine one technique in :mod:`repro.reorder`
runs, and produces **bit-identical permutations** to that technique's
per-node loop oracle (``_gorder_reference``, ``_rcm_reference``), which
only the differential suite (``tests/test_reorder_fast.py``) and
``repro bench-reorder`` call.  The CSR-native RABBIT detector behind
rabbit/rabbit++ lives in :mod:`repro.community.fast`.
"""
