"""Vectorized Rabbit incremental aggregation.

Bit-identical to the dict-per-root oracle in ``tests/oracles/community.py``,
which keeps one Python dict per community root and resolves stale
keys through a scalar union-find; this engine keeps each live row as a
growable (keys, weights) *append buffer* and batches row folding with
numpy.  A merge copies the loser's compacted row onto the end of the
winner's buffer in O(loser row) — the winner's row is only folded when
the winner itself is next visited, so hub communities absorbing
thousands of losers never pay per-merge rebuild costs.

Deferred folding reproduces the reference's dict semantics exactly:

- *Merge-time accumulation.* ``_merge`` folds the loser's entries into
  the winner's dict by exact key (appending unmatched keys).  Since
  every appended segment has unique keys (a freshly resolved row minus
  the winner), eagerly folding segment after segment equals folding the
  whole buffer by exact key in first-occurrence order, with weights
  accumulated in input order — the same ``get(...) + w`` chains the
  dict produces.
- *Resolve.* The reference then maps dict keys to community roots and
  keeps the first occurrence of each root; a second fold over the
  stage-1 row replicates it, including the float accumulation order.
- *Internal-edge drops.* Entries resolving to the row's own root are
  dropped at resolve; entries equal to the winner are dropped at merge
  (the loser's row is freshly resolved, so its keys are live roots and
  ``root == winner`` is an exact-value test).
- *Tie-breaking.* The reference takes the first strictly-positive gain
  improvement scanning candidates in insertion order; ``argmax`` over
  the gain vector (first maximum wins) selects the same root.

Performance notes, each preserving bit-identity:

- Rows are materialized lazily: until a loser's row is appended to a
  node's row, it lives only as a slice bound into the cleaned CSR
  (self-loops removed, duplicate columns collapsed in storage order —
  exactly the dicts the reference builds), whose unique keys need no
  stage-1 fold.  An appended-to row becomes a mutable ``[keys,
  weights, length, ...]`` buffer grown geometrically.  Each node is
  visited once, and after its visit it is absorbed or never visited
  again, so its row is never read again: a visit stores nothing back
  (the reference's rewrite of a non-merging root's dict has no reader
  either).
- Row length alone picks the path.  A row of at most ``DICT_MAX``
  entries, base plus appends, skips numpy entirely and runs the
  reference's own dict passes — an exact-key fold of the base and its
  appends in merge order, then resolution to roots in that dict's
  order — so identical IEEE operations in identical order produce
  identical bits.  Untouched CSR rows skip the fold, and those whose
  keys are all still live roots skip the dict building too, scanning
  gains straight off the key/weight lists.  Only longer rows pay the
  vectorized path's fixed cost of a few dozen numpy calls.
- The union-find forest is kept twice: an ndarray ``parent`` for batch
  gathers in the vectorized path and a plain-list mirror for the
  dict path (numpy scalar indexing costs ~10x a list index).  The
  mirrors only need *root-equivalence*, not pointer-equality — path
  compression never changes which root a chain reaches — so each path
  compresses its own copy freely and only structural merge writes
  update both.  ``degree`` is mirrored the same way, and every
  ``_COMPACT_EVERY`` merges the whole forest is batch-compressed to
  depth one and the mirror refreshed from it.
"""

from __future__ import annotations

import numpy as np

from repro.community.assignment import CommunityAssignment
from repro.community.dendrogram import Dendrogram

#: Rows with at most this many entries (base plus appends) take the
#: reference's dict passes; longer rows take the vectorized fold.  A
#: dict visit costs ~0.7 us per entry, a vectorized one ~25 us plus
#: ~0.1 us per entry.  Timed visit by visit on both paths (2-core
#: Xeon), the cheaper path switches between 48 and 96 entries on mesh,
#: social, web, circuit and block-model graphs, and near 40 on the
#: hub-heavy ``rmat(15, 16)``, whose detection a cut of 64 slows by 2%
#: and one of 128 by 11%; untouched and appended-to rows cross alike.
DICT_MAX = 48

#: Globally path-compress the union-find forest after this many merges.
_COMPACT_EVERY = 4096


def find_roots(parent: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Union-find roots for a batch of ``keys``, with path compression.

    Equivalent to the reference's per-key path-halving ``find``: both
    return the unique root of each chain, and compression only shortens
    chains without changing roots.
    """
    size = keys.size
    if size == 0:
        return keys
    roots = parent[keys]
    while True:
        grand = parent[roots]
        if np.count_nonzero(grand == roots) == size:
            break
        roots = grand
    parent[keys] = roots
    return roots


def _cleaned_csr(adjacency, row_of_entry=None):
    """CSR arrays with self-loops removed and duplicate columns merged.

    The reference builds each dict by scanning the row in storage
    order; duplicates (possible for graphs built from raw COO data)
    collapse in storage order, matching the dict's ``get(...) + w``
    accumulation, so slice ``bounds[v]:bounds[v + 1]`` *is* node ``v``'s
    initial dict.
    """
    offsets = adjacency.row_offsets
    indices = adjacency.col_indices
    values = adjacency.values
    n = adjacency.n_rows
    if row_of_entry is None:
        row_of_entry = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    keep = indices != row_of_entry
    if not keep.all():
        row_of_entry = row_of_entry[keep]
        indices = indices[keep]
        values = values[keep]
    dup = (row_of_entry[1:] == row_of_entry[:-1]) & (indices[1:] == indices[:-1])
    if dup.any():
        combined = row_of_entry * np.int64(n) + indices
        _, first_idx, inverse = np.unique(
            combined, return_index=True, return_inverse=True
        )
        sums = np.bincount(inverse, weights=values, minlength=first_idx.size)
        order = np.argsort(first_idx, kind="stable")
        row_of_entry = row_of_entry[first_idx[order]]
        indices = indices[first_idx[order]]
        values = sums[order]
    counts = np.bincount(row_of_entry, minlength=n).astype(np.int64)
    bounds = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
    )
    return indices.astype(np.int64, copy=False), values, bounds


class _Folder:
    """Sort-free first-occurrence fold using an O(n) scratch index.

    ``fold(keys, weights)`` collapses duplicate keys: the first
    occurrence keeps its position and weights accumulate in input order
    (exactly a dict ``get(...) + w`` chain).  Writing the reversed
    index array through the scratch makes the *last* write — i.e. the
    first occurrence — win, which identifies duplicates without any
    sorting.  The scratch is never reset: every call writes the slots
    of its own keys before reading them, so stale values from earlier
    calls are never observed.
    """

    def __init__(self, n: int) -> None:
        self._slot = np.zeros(n, dtype=np.int64)
        self._arange = np.arange(max(n, 1), dtype=np.int64)

    def fold(self, keys: np.ndarray, weights: np.ndarray):
        size = keys.size
        if self._arange.size < size:
            self._arange = np.arange(2 * size, dtype=np.int64)
        index = self._arange[:size]
        slot = self._slot
        slot[keys[::-1]] = index[::-1]
        first_pos = slot[keys]
        is_first = first_pos == index
        if np.count_nonzero(is_first) == size:
            return keys, weights
        ranks = is_first.cumsum()
        bins = ranks[first_pos] - 1
        sums = np.bincount(bins, weights=weights, minlength=int(ranks[-1]))
        return keys[is_first], sums


def rabbit_communities_fast(undirected):
    """Array-backed incremental aggregation on an undirected graph.

    Takes the already-symmetrized graph (as
    :func:`repro.community.rabbit.rabbit_communities` builds it) and
    returns the same :class:`RabbitResult` the reference produces, bit
    for bit.
    """
    from repro.community.rabbit import RabbitResult  # deferred: cycle

    adjacency = undirected.adjacency
    n = adjacency.n_rows
    dendrogram = Dendrogram(n)
    if n == 0:
        return RabbitResult(
            CommunityAssignment(np.empty(0, dtype=np.int64)), dendrogram, 0
        )

    row_of_entry = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(adjacency.row_offsets)
    )
    # bincount accumulates its weights in entry order, one sequential
    # add per bin — the same IEEE sequence as the reference's per-row
    # scalar accumulation (and as np.add.at, which is far slower).
    degree = np.bincount(row_of_entry, weights=adjacency.values, minlength=n)
    total_weight = float(degree.sum())  # 2m
    if total_weight == 0.0:
        return RabbitResult(
            CommunityAssignment(np.arange(n, dtype=np.int64)).compact(), dendrogram, 0
        )

    indices, values, bounds = _cleaned_csr(adjacency, row_of_entry)
    parent = np.arange(n, dtype=np.int64)
    # fragments[v] is None while v's row is still its untouched CSR
    # slice; once a loser's row is appended to it, it becomes a mutable
    # 6-slot buffer
    #     [keys, weights, length, pending_keys, pending_weights, v]
    # where ``keys``/``weights`` are ndarrays holding the first
    # ``length`` entries (or None while the base is still the CSR
    # slice) and the pending lists hold dict-path appends not yet
    # flushed into the arrays (list.extend is ~10x cheaper than a
    # numpy slice-write per short append).  A row is read only at its
    # node's one visit, so visits store nothing back.
    fragments: list = [None] * n

    # Plain-Python mirrors for the dict path; see module docstring.
    bounds_list = bounds.tolist()
    degree_list = degree.tolist()
    parent_list = parent.tolist()

    visit_list = np.argsort(degree, kind="stable").tolist()
    dict_max = DICT_MAX
    gain_scale = 2.0 / total_weight
    folder = _Folder(n)
    count_nonzero = np.count_nonzero
    node_ids = np.arange(n, dtype=np.int64)
    next_compact = _COMPACT_EVERY
    # Merge bookkeeping bypasses Dendrogram.absorb's per-call
    # validation: the engine only ever merges two distinct live roots
    # (the invariants absorb re-checks), and the absorbed flags are
    # batch-applied once the run finishes.
    children = dendrogram._children
    losers: list = []
    n_merges = 0

    def flush_pending(target, extra):
        """Fold a row's pending lists (plus ``extra`` headroom) into its
        array buffer, materializing the CSR base on first touch.

        Appends land in buffer order (base, then pending in merge
        order), so the flushed buffer is the same concatenation the
        reference's eager merges accumulate over.
        """
        pending_keys = target[3]
        count = len(pending_keys)
        length = target[2]
        new_len = length + count
        keys_buf = target[0]
        if keys_buf is None:
            # Base still the CSR slice (kept implicit while appends
            # were pure list extends); copy it with headroom.
            ws = bounds_list[target[5]]
            we = ws + length
            capacity = new_len + extra + (new_len >> 1) + 8
            keys_buf = np.empty(capacity, dtype=np.int64)
            weights_buf = np.empty(capacity, dtype=np.float64)
            keys_buf[:length] = indices[ws:we]
            weights_buf[:length] = values[ws:we]
            target[0] = keys_buf
            target[1] = weights_buf
        elif new_len + extra > keys_buf.size:
            capacity = new_len + extra + (new_len >> 1) + 8
            grown_keys = np.empty(capacity, dtype=np.int64)
            grown_weights = np.empty(capacity, dtype=np.float64)
            grown_keys[:length] = keys_buf[:length]
            grown_weights[:length] = target[1][:length]
            target[0] = keys_buf = grown_keys
            target[1] = grown_weights
        if count:
            keys_buf[length:new_len] = pending_keys
            target[1][length:new_len] = target[4]
            target[2] = new_len
            pending_keys.clear()
            target[4].clear()

    def append_array(winner, kept_keys, kept_weights, count):
        """Copy a loser's kept entries onto the winner's row buffer."""
        target = fragments[winner]
        if target is None:
            target = [None, None, bounds_list[winner + 1] - bounds_list[winner],
                      [], [], winner]
            fragments[winner] = target
        elif target[3]:
            flush_pending(target, count)
        length = target[2]
        new_len = length + count
        keys_buf = target[0]
        if keys_buf is None or new_len > keys_buf.size:
            flush_pending(target, count)
            keys_buf = target[0]
        keys_buf[length:new_len] = kept_keys
        target[1][length:new_len] = kept_weights
        target[2] = new_len

    for v in visit_list:
        if n_merges >= next_compact:
            # Periodic global path compression: batch-shorten every
            # union-find chain to depth one.  Compression never
            # changes which root a chain reaches, so this (and
            # refreshing the list mirror from it) preserves
            # bit-identity while keeping both paths' finds cheap.
            next_compact = n_merges + _COMPACT_EVERY
            find_roots(parent, node_ids)
            parent_list = parent.tolist()
        if parent_list[v] != v:
            continue  # absorbed earlier; its edges live at its root
        row = fragments[v]
        if row is None:
            start = bounds_list[v]
            end = bounds_list[v + 1]
            total_len = end - start
        else:
            total_len = row[2] + len(row[3])
        if total_len == 0:
            continue

        if total_len <= dict_max:
            # ---- dict path: the reference algorithm verbatim ------
            if row is None:
                keys = indices[start:end].tolist()
                weights = values[start:end].tolist()
            else:
                length = row[2]
                if row[0] is None:
                    start = bounds_list[v]
                    keys = indices[start:start + length].tolist()
                    weights = values[start:start + length].tolist()
                else:
                    keys = row[0][:length].tolist()
                    weights = row[1][:length].tolist()
                if row[3]:
                    keys += row[3]
                    weights += row[4]
            deg_v = degree_list[v]
            candidates = None
            if row is None:
                # A CSR row's keys are unique: the stage-1 fold is the
                # identity.
                entries = zip(keys, weights)
                winner = -1
                best_gain = 0.0
                for root, weight in zip(keys, weights):
                    if parent_list[root] != root:
                        break
                    gain = gain_scale * (
                        weight - deg_v * degree_list[root] / total_weight
                    )
                    if gain > best_gain:
                        best_gain = gain
                        winner = root
                else:
                    # Every key was a live root (and != v: CSR rows have
                    # no self-loops) — the row is its own resolution and
                    # the gains scanned above are final.
                    if winner < 0:
                        continue
                    candidates = entries
            else:
                # Stage 1, the reference's merge-time accumulation:
                # fold the base and its appends by exact key, in merge
                # order.
                folded: dict = {}
                for key, weight in zip(keys, weights):
                    folded[key] = folded.get(key, 0.0) + weight
                entries = folded.items()
            if candidates is None:
                # Stage 2: resolve to roots in the row's dict order.
                resolved: dict = {}
                for key, weight in entries:
                    root = key
                    while parent_list[root] != root:  # path-halving find
                        parent_list[root] = parent_list[parent_list[root]]
                        root = parent_list[root]
                    if root != v:
                        resolved[root] = resolved.get(root, 0.0) + weight
                if not resolved:
                    continue
                winner = -1
                best_gain = 0.0
                for root, weight in resolved.items():
                    gain = gain_scale * (
                        weight - deg_v * degree_list[root] / total_weight
                    )
                    if gain > best_gain:
                        best_gain = gain
                        winner = root
                if winner < 0:
                    continue
                candidates = resolved.items()
            kept_keys = []
            kept_weights = []
            for root, weight in candidates:
                if root != winner:
                    kept_keys.append(root)
                    kept_weights.append(weight)
            if kept_keys:
                target = fragments[winner]
                if target is None:
                    fragments[winner] = [
                        None, None,
                        bounds_list[winner + 1] - bounds_list[winner],
                        kept_keys, kept_weights, winner,
                    ]
                else:
                    target[3].extend(kept_keys)
                    target[4].extend(kept_weights)
        else:
            # ---- vectorized path --------------------------------
            if row is None:
                keys = indices[start:end]
                weights = values[start:end]
            else:
                if row[3]:
                    flush_pending(row, 0)
                keys, weights = folder.fold(
                    row[0][:total_len], row[1][:total_len]
                )
            roots = parent[keys]
            if count_nonzero(roots == keys) != keys.size:
                depth = 1
                while True:
                    grand = parent[roots]
                    if count_nonzero(grand == roots) == roots.size:
                        break
                    roots = grand
                    depth += 1
                if depth > 1:
                    # Compress only multi-hop chains; single-hop
                    # gathers are already as cheap as compressed
                    # ones, and skipping the scattered write saves
                    # a cache-miss pass (roots are unchanged either
                    # way).
                    parent[keys] = roots
                external = roots != v
                if count_nonzero(external) != roots.size:
                    roots = roots[external]
                    weights = weights[external]
                if roots.size == 0:
                    continue
                roots, weights = folder.fold(roots, weights)
            # In-place gain chain: multiply is commutative bitwise
            # and the list-mirror degree holds the same values, so
            # these are the reference's IEEE ops in order.
            gains = degree[roots]
            gains *= degree_list[v]
            gains /= total_weight
            np.subtract(weights, gains, out=gains)
            gains *= gain_scale
            best = int(gains.argmax())
            if not gains[best] > 0.0:
                continue
            winner = int(roots[best])
            external = roots != winner
            if count_nonzero(external) == roots.size:
                append_array(winner, roots, weights, roots.size)
            else:
                kept = roots[external]
                if kept.size:
                    append_array(winner, kept, weights[external], kept.size)

        # ---- merge bookkeeping (reference `_merge`) -------------
        parent[v] = winner
        parent_list[v] = winner
        merged_degree = degree_list[winner] + degree_list[v]
        degree_list[winner] = merged_degree
        degree[winner] = merged_degree
        children[winner].append(v)
        losers.append(v)
        fragments[v] = None
        n_merges += 1

    if losers:
        dendrogram._absorbed[np.asarray(losers, dtype=np.int64)] = True
    labels = find_roots(parent, np.arange(n, dtype=np.int64)).copy()
    assignment = CommunityAssignment(labels).compact()
    return RabbitResult(assignment, dendrogram, n_merges)
