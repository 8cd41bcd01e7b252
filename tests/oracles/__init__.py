"""Per-access and per-node loop oracles for the differential suites.

Each product engine (the bucketed LRU replay, the RABBIT detector, the
GOrder, RCM and BOBA orderings, the two-level hierarchy) once shipped
beside the plain-Python loop it replaced.  The loops live here now:
product code never calls them, and the differential tests require the
engines to reproduce them bit-for-bit.

- :mod:`tests.oracles.cache` — the ``OrderedDict`` LRU loop and the
  two-level L1/L2 loop;
- :mod:`tests.oracles.community` — the dict-per-root RABBIT detector;
- :mod:`tests.oracles.reorder` — the lazy-heap GOrder, per-parent BFS
  RCM and per-node BOBA loops, plus :data:`~tests.oracles.reorder.ORACLES`,
  the technique name -> oracle permutation map.

Belady's per-access loop is not here: :func:`repro.cache.simulate`
still runs it on small inputs, so it stays in :mod:`repro.cache.belady`.
"""
