"""Content-addressed permutation/evaluation store for the serve tier.

Keys are derived from the *structure* of the CSR matrix — the byte
content of ``row_offsets`` and ``col_indices`` plus the shape — never
from a user-supplied name, so two uploads of the same matrix (or an
upload that duplicates a corpus entry) share one store entry.  Two
entry kinds live under one root:

* ``perm``  — key = SHA-256(structure digest | technique):
  the permutation and its measured pre-processing time;
* ``eval``  — key = SHA-256(perm key | kernel | policy | platform):
  the full response payload (model outputs + permutation reference),
  which is what makes a store hit byte-identical to the miss that
  created it.

Every entry is wrapped in the PR 4 versioned checksum envelope
(:mod:`repro.resilience.integrity`), so truncated or bit-flipped
entries are detected on read, quarantined under ``<store>/quarantine/``
and recomputed — a damaged store degrades to recomputation, never to a
wrong answer.  Writes go through :func:`atomic_write_document`, whose
per-write unique temp names make concurrent same-key writers safe.

Layout::

    <store>/
      perm/ab/abcdef....json
      eval/4f/4f19c2....json
      quarantine/            <- damaged entries, moved aside on read
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import CacheIntegrityError
from repro.obs import get_obs
from repro.resilience.faults import fault_point
from repro.resilience.integrity import (
    CacheScan,
    LegacyCacheEntry,
    atomic_write_document,
    load_or_quarantine,
    load_verified,
    quarantine_file,
    wrap_payload,
)

#: Store layout version: bump when the key derivation or entry payload
#: layout changes incompatibly (old entries then simply miss).
STORE_VERSION = 1

KINDS = ("perm", "eval")

#: Environment override for the store root (mirrors REPRO_CACHE_DIR).
STORE_DIR_ENV = "REPRO_SERVE_STORE"


def resolve_store_dir(store_dir: Optional[str] = None) -> str:
    """Explicit argument, else ``$REPRO_SERVE_STORE``, else a
    ``serve-store`` subdirectory of the memo cache dir."""
    if store_dir is not None:
        return store_dir
    env = os.environ.get(STORE_DIR_ENV)
    if env:
        return env
    from repro.experiments.runner import resolve_cache_dir

    return os.path.join(resolve_cache_dir(), "serve-store")


def structure_digest(csr) -> str:
    """SHA-256 of a CSR matrix's structure (shape + offsets + indices).

    Values are deliberately excluded: every reordering technique and
    every kernel trace in this pipeline depends only on the sparsity
    structure, so matrices differing solely in values share entries.
    """
    h = hashlib.sha256()
    h.update(f"csr-structure-v{STORE_VERSION}|{csr.n_rows}|{csr.n_cols}|".encode())
    h.update(np.ascontiguousarray(csr.row_offsets, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.col_indices, dtype=np.int64).tobytes())
    return h.hexdigest()


def perm_key(digest: str, technique: str) -> str:
    """Content address of one permutation: structure + technique."""
    raw = f"perm-v{STORE_VERSION}|{digest}|{technique}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def eval_key(digest: str, technique: str, kernel: str, policy: str, platform: str) -> str:
    """Content address of one evaluated (permutation, kernel) pair."""
    raw = f"eval-v{STORE_VERSION}|{perm_key(digest, technique)}|{kernel}|{policy}|{platform}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


class PermutationStore:
    """On-disk content-addressed store with envelope verification.

    The store is shared-nothing between readers and writers: reads
    verify the envelope and quarantine damage, writes are atomic with
    unique temp names, and the key *is* the content address, so
    concurrent writers of one key write identical bytes and last-wins
    replacement is harmless.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = resolve_store_dir(root)

    def path(self, kind: str, key: str) -> str:
        if kind not in KINDS:
            raise ValueError(f"store kind must be one of {KINDS}, got {kind!r}")
        return os.path.join(self.root, kind, key[:2], f"{key}.json")

    def get(self, kind: str, key: str) -> Optional[Dict[str, object]]:
        """Verified payload for ``key``, or ``None`` (miss / quarantined)."""
        path = self.path(kind, key)
        if not os.path.exists(path):
            get_obs().counter(f"serve.store.{kind}.miss")
            return None
        # Chaos site: a ``corrupt`` rule here damages the entry before
        # the verified read (exercising quarantine-on-read); ``raise``
        # simulates a failing disk, which the service's store breaker
        # degrades to a miss.
        fault_point("serve.store.get", label=f"{kind}:{key[:12]}", path=path)
        payload = load_or_quarantine(path, cache_dir=self.root)
        if payload is None:
            get_obs().counter(f"serve.store.{kind}.miss")
            return None
        get_obs().counter(f"serve.store.{kind}.hit")
        return payload

    def put(self, kind: str, key: str, payload: Dict[str, object]) -> str:
        """Persist ``payload`` under ``key``; returns the entry path."""
        path = self.path(kind, key)
        atomic_write_document(path, wrap_payload(payload))
        # Chaos site, mirroring ``memo.write``: ``corrupt`` damages the
        # just-written entry (caught by the next verified read or the
        # startup scrub), ``raise`` simulates a failed persist.
        fault_point("serve.store.put", label=f"{kind}:{key[:12]}", path=path)
        get_obs().counter(f"serve.store.{kind}.write")
        return path

    def scan(self, quarantine: bool = False) -> CacheScan:
        """Integrity-classify every entry (``repro doctor --store``).

        Unlike the memo cache's flat :func:`scan_cache`, entries live in
        a nested ``<kind>/<key[:2]>/`` layout, so this walks recursively
        and reports store-relative names (``eval/4f/4f19c2….json``).
        With ``quarantine=True``, damaged and legacy entries are moved
        to ``<store>/quarantine/`` so they can never serve a bad hit —
        the server runs exactly this scrub at startup.
        """
        scan = CacheScan(cache_dir=self.root)
        for kind in KINDS:
            kind_root = os.path.join(self.root, kind)
            for dirpath, _dirnames, filenames in os.walk(kind_root):
                for name in sorted(filenames):
                    if not name.endswith(".json"):
                        continue
                    path = os.path.join(dirpath, name)
                    rel = os.path.relpath(path, self.root)
                    try:
                        load_verified(path)
                    except LegacyCacheEntry as exc:
                        scan.legacy.append(rel)
                        if quarantine:
                            quarantine_file(
                                path, cache_dir=self.root, reason=str(exc)
                            )
                    except CacheIntegrityError as exc:
                        scan.damaged.append((rel, str(exc)))
                        if quarantine:
                            quarantine_file(
                                path, cache_dir=self.root, reason=str(exc)
                            )
                    else:
                        scan.ok.append(rel)
        qdir = os.path.join(self.root, "quarantine")
        if os.path.isdir(qdir):
            scan.quarantined = sorted(os.listdir(qdir))
        return scan

    def stats(self) -> Dict[str, object]:
        """Entry counts and byte totals per kind (for ``/stats``)."""
        out: Dict[str, object] = {"root": self.root}
        for kind in KINDS:
            count, size = self._walk(os.path.join(self.root, kind))
            out[kind] = {"entries": count, "bytes": size}
        qcount, qsize = self._walk(os.path.join(self.root, "quarantine"))
        out["quarantine"] = {"entries": qcount, "bytes": qsize}
        return out

    @staticmethod
    def _walk(root: str) -> Tuple[int, int]:
        count = 0
        size = 0
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                if name.endswith(".json"):
                    count += 1
                    try:
                        size += os.path.getsize(os.path.join(dirpath, name))
                    except OSError:
                        pass
        return count, size
