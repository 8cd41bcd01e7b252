"""The content-addressed result store.

One store holds every result the pipeline keeps: the experiment
runner's simulated cells and matrix metrics, Fig. 9's size sweep and
the serve tier's responses.  Keys are derived from the *content* of
the CSR matrix — the byte content of ``row_offsets`` and
``col_indices`` plus the shape (:func:`structure_digest`), and the
values too unless every value is 1 (:func:`matrix_digest`) — never
from a corpus name, so two uploads of the same matrix (or an upload
that duplicates a corpus entry) share entries, and a matrix whose
generator changed can never hit an entry of the old one.  Four entry
kinds live under one root:

* ``perm``    — key = SHA-256(matrix digest | technique):
  the permutation, held as its canonical JSON array text inside a JSON
  string (``"permutation":"[3,0,2,1]"``, see :class:`PermutationText`);
* ``time``    — the same key as its ``perm`` entry: the measured
  reordering seconds, the only wall-clock value the store holds;
* ``eval``    — key = SHA-256(perm key | kernel | policy | platform |
  schedule | mask): the performance-model block and its perm key
  (:func:`eval_payload`, shared by the runner and the serve tier);
* ``metrics`` — key = SHA-256(matrix digest): the structure metrics
  under RABBIT detection.

Every kind but ``time`` is a pure function of its key, so two cold
sweeps into separate roots write byte-identical ``perm/``, ``eval/``
and ``metrics/`` trees.

Reading a ``perm`` entry therefore parses one string, not a
permutation element, and a serve-tier hit carries that string from
disk into the response body unparsed.  ``STORE_VERSION`` 3 introduced
this layout; entries written under older versions have other keys, so
they miss and are recomputed.

Every entry is wrapped in the versioned checksum envelope
(:mod:`repro.resilience.integrity`), so truncated or bit-flipped
entries are detected on read, quarantined under ``<root>/quarantine/``
and recomputed — a damaged store degrades to recomputation, never to a
wrong answer.  Writes go through :func:`atomic_write_payload`, whose
per-write unique temp names make concurrent same-key writers safe.

Layout::

    <root>/
      perm/ab/abcdef....json
      time/ab/abcdef....json
      eval/4f/4f19c2....json
      metrics/9e/9e01d7....json
      quarantine/            <- damaged entries, moved aside on read
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import CacheIntegrityError
from repro.obs import get_obs
from repro.resilience.faults import fault_point
from repro.resilience.integrity import (
    CacheScan,
    LegacyCacheEntry,
    atomic_write_payload,
    load_or_quarantine,
    load_verified,
    quarantine_file,
    quarantine_path,
)

#: Key-derivation version: bump when the key derivation or an entry
#: payload layout changes incompatibly (old entries then simply miss).
STORE_VERSION = 3

KINDS = ("perm", "time", "eval", "metrics")

#: The kinds whose payloads are pure functions of their keys.
DETERMINISTIC_KINDS = ("perm", "eval", "metrics")

#: Environment override for the serve tier's store root.
STORE_DIR_ENV = "REPRO_SERVE_STORE"


def resolve_store_dir(store_dir: Optional[str] = None) -> str:
    """The serve tier's root: explicit argument, else
    ``$REPRO_SERVE_STORE``, else a ``serve-store`` subdirectory of the
    runner's cache dir."""
    if store_dir is not None:
        return store_dir
    env = os.environ.get(STORE_DIR_ENV)
    if env:
        return env
    from repro.experiments.runner import resolve_cache_dir

    return os.path.join(resolve_cache_dir(), "serve-store")


def structure_digest(csr) -> str:
    """SHA-256 of a CSR matrix's structure (shape + offsets + indices).

    Values are excluded: matrices differing solely in values share this
    digest.  The kernel traces depend only on the structure, but RABBIT,
    RABBIT++ and Louvain weigh edges by value, so store keys start from
    :func:`matrix_digest`, which adds the values of a weighted matrix.
    The digest names the structure, not the store layout, so its own
    version tag stays ``v1`` whatever :data:`STORE_VERSION` is.
    """
    h = hashlib.sha256()
    h.update(f"csr-structure-v1|{csr.n_rows}|{csr.n_cols}|".encode())
    h.update(np.ascontiguousarray(csr.row_offsets, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.col_indices, dtype=np.int64).tobytes())
    return h.hexdigest()


def matrix_digest(csr) -> str:
    """The digest every store key of a matrix derives from.

    A pattern matrix (every stored value 1, as in every corpus matrix)
    is keyed by its :func:`structure_digest`.  Any other matrix is keyed
    by the SHA-256 of that digest and its values' bytes, because the
    weighted techniques order it differently.
    """
    digest = structure_digest(csr)
    values = np.ascontiguousarray(csr.values, dtype=np.float64)
    if np.all(values == 1):
        return digest
    h = hashlib.sha256()
    h.update(f"csr-values-v1|{digest}|".encode())
    h.update(values.tobytes())
    return h.hexdigest()


def _key(*parts: object) -> str:
    raw = "|".join(str(part) for part in parts)
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def perm_key(digest: str, technique: str) -> str:
    """Content address of one permutation (and of its ``time`` entry)."""
    return _key(f"perm-v{STORE_VERSION}", digest, technique)


def eval_key(
    perm: str, kernel: str, policy: str, platform: str, schedule: str, mask: str
) -> str:
    """Content address of one evaluated (permutation, kernel) cell."""
    return _key(f"eval-v{STORE_VERSION}", perm, kernel, policy, platform, schedule, mask)


def metrics_key(digest: str) -> str:
    """Content address of one matrix's structure metrics."""
    return _key(f"metrics-v{STORE_VERSION}", digest)


class PermutationText:
    """A permutation as its canonical JSON array text, e.g. ``[3,0,2,1]``.

    A ``perm`` entry holds this text as a JSON string, so a store read
    hands it over without parsing an element, and
    :func:`repro.serve.httpd.render_body` splices it into a response
    verbatim.  NumPy's ``__array__`` protocol is the only decoder
    (``np.asarray(text, dtype=np.int64)``); the type neither iterates
    nor compares like a list.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    @classmethod
    def encode(cls, permutation) -> "PermutationText":
        """The text ``json.dumps`` gives the permutation as a list of
        ints, with compact separators."""
        values = np.asarray(permutation, dtype=np.int64).tolist()
        return cls(json.dumps(values, separators=(",", ":")))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("decoding a PermutationText always makes a new array")
        array = np.array(json.loads(self.text), dtype=np.int64)
        return array if dtype is None else array.astype(dtype, copy=False)


def perm_payload(key: str, digest: str, technique: str, permutation) -> Dict[str, object]:
    """The ``perm`` entry of one computed permutation (an index array)."""
    values = np.asarray(permutation, dtype=np.int64)
    return {
        "perm_key": key,
        "matrix_digest": digest,
        "technique": technique,
        "n_nodes": int(values.size),
        "permutation": PermutationText.encode(values).text,
    }


def eval_payload(
    key: str,
    perm: str,
    kernel: str,
    policy: str,
    platform: str,
    schedule: str,
    mask: str,
    run,
) -> Dict[str, object]:
    """The ``eval`` entry of one modeled run (a ``KernelRunModel``)."""
    return {
        "eval_key": key,
        "perm_key": perm,
        "kernel": kernel,
        "policy": policy,
        "platform": platform,
        "schedule": schedule,
        "mask": mask,
        "model": {
            "normalized_traffic": run.normalized_traffic,
            "normalized_runtime": run.normalized_runtime,
            "traffic_bytes": run.traffic_bytes,
            "compulsory_bytes": run.compulsory_bytes,
            "modeled_seconds": run.modeled_seconds,
            "ideal_seconds": run.ideal_seconds,
            "hit_rate": run.stats.hit_rate,
            "dead_line_fraction": run.stats.dead_line_fraction,
            "accesses": run.stats.accesses,
            "misses": run.stats.misses,
        },
    }


class ResultStore:
    """On-disk content-addressed store with envelope verification.

    The store is shared-nothing between readers and writers: reads
    verify the envelope and quarantine damage, writes are atomic with
    unique temp names, and the key *is* the content address, so
    concurrent writers of one key write identical bytes and last-wins
    replacement is harmless.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def path(self, kind: str, key: str) -> str:
        if kind not in KINDS:
            raise ValueError(f"store kind must be one of {KINDS}, got {kind!r}")
        return os.path.join(self.root, kind, key[:2], f"{key}.json")

    def get(self, kind: str, key: str) -> Optional[Dict[str, object]]:
        """Verified payload for ``key``, or ``None`` (miss / quarantined)."""
        obs = get_obs()
        path = self.path(kind, key)
        if not os.path.exists(path):
            obs.counter(f"store.{kind}.miss")
            return None
        # Chaos site: a ``corrupt`` rule here damages the entry before
        # the verified read (exercising quarantine-on-read); ``raise``
        # simulates a failing disk, which the service's store breaker
        # degrades to a miss.
        fault_point("store.get", label=f"{kind}:{key[:12]}", path=path)
        with obs.span("memo-load", kind=kind):
            payload = load_or_quarantine(path, cache_dir=self.root)
        obs.counter(f"store.{kind}.{'miss' if payload is None else 'hit'}")
        return payload

    def put(self, kind: str, key: str, payload: Dict[str, object]) -> str:
        """Persist ``payload`` under ``key``; returns the entry path."""
        path = self.path(kind, key)
        with get_obs().span("memo-store", kind=kind):
            atomic_write_payload(path, payload)
        # Chaos site: ``corrupt`` damages the just-written entry (caught
        # by the next verified read or the startup scrub), ``raise``
        # simulates a failed persist.
        fault_point("store.put", label=f"{kind}:{key[:12]}", path=path)
        get_obs().counter(f"store.{kind}.write")
        return path

    def entries(self, kinds: Sequence[str] = KINDS) -> List[str]:
        """Paths of every entry of ``kinds``, in sorted order."""
        paths: List[str] = []
        for kind in kinds:
            for dirpath, dirnames, filenames in os.walk(os.path.join(self.root, kind)):
                dirnames.sort()
                paths.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".json")
                )
        return paths

    def scan(self, quarantine: bool = False) -> CacheScan:
        """Integrity-classify every entry (``repro doctor``).

        Reports root-relative names (``eval/4f/4f19c2….json``).  With
        ``quarantine=True``, damaged and legacy entries are moved to
        ``<root>/quarantine/`` so they can never serve a bad hit — the
        server runs exactly this scrub at startup.
        """
        scan = CacheScan(cache_dir=self.root)
        for path in self.entries():
            rel = os.path.relpath(path, self.root)
            try:
                load_verified(path)
            except LegacyCacheEntry as exc:
                scan.legacy.append(rel)
                if quarantine:
                    quarantine_file(path, cache_dir=self.root, reason=str(exc))
            except CacheIntegrityError as exc:
                scan.damaged.append((rel, str(exc)))
                if quarantine:
                    quarantine_file(path, cache_dir=self.root, reason=str(exc))
            else:
                scan.ok.append(rel)
        qdir = quarantine_path(self.root)
        if os.path.isdir(qdir):
            scan.quarantined = sorted(os.listdir(qdir))
        return scan

    def stats(self) -> Dict[str, object]:
        """Entry counts and byte totals per kind (``/stats``, ``cache-stats``)."""
        out: Dict[str, object] = {"root": self.root}
        for kind in KINDS:
            sizes = [_size(path) for path in self.entries((kind,))]
            out[kind] = {"entries": len(sizes), "bytes": sum(sizes)}
        qdir = quarantine_path(self.root)
        names = sorted(os.listdir(qdir)) if os.path.isdir(qdir) else []
        sizes = [_size(os.path.join(qdir, name)) for name in names]
        out["quarantine"] = {"entries": len(sizes), "bytes": sum(sizes)}
        return out


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
