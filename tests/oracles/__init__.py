"""Per-access and per-node loop oracles for the differential suites.

Each product engine (the bucketed LRU and Belady replays, the RABBIT
detector, the GOrder, RCM and BOBA orderings, the two-level hierarchy,
the SpGEMM trace builder) once shipped beside the simpler code it
replaced.  That code lives here now: product code never calls it, and
the differential tests require the engines to reproduce it
bit-for-bit.

- :mod:`tests.oracles.cache` — the ``OrderedDict`` LRU loop, the
  lazy-heap Belady loop and the two-level L1/L2 loop;
- :mod:`tests.oracles.community` — the dict-per-root RABBIT detector;
- :mod:`tests.oracles.reorder` — the lazy-heap GOrder, per-parent BFS
  RCM and per-node BOBA loops, plus :data:`~tests.oracles.reorder.ORACLES`,
  the technique name -> oracle permutation map;
- :mod:`tests.oracles.trace` — the monolithic SpGEMM trace construction
  that the block-by-block builder replaced.
"""
