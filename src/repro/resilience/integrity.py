"""Versioned, checksummed envelopes for cache files.

Every entry of the result store (:mod:`repro.store`), the sweep
manifest and the matrix cache is wrapped in an envelope, written as
canonical JSON (sorted keys, compact separators)::

    {"__repro_cache__":{"checksum":"<sha256 of payload>","schema":1},"payload":{...}}

The checksum covers the same canonical encoding of the payload, so the
checksummed bytes appear verbatim after ``"payload":`` and any
truncation, bit-flip or half-written file is detected on read.
:func:`atomic_write_payload` encodes the payload once, hashes those
bytes and writes them between the envelope's fixed head and tail; it
gives the same bytes as :func:`atomic_write_document` of
:func:`wrap_payload`, which encodes the payload twice.
:func:`load_verified` has two paths.  A file in this layout is verified
by hashing its stored payload bytes; only the payload is then parsed,
once.  Any other file (the older ``indent=1`` layout, a hand-written
envelope, damage) is parsed whole and checked by
:func:`unwrap_document`, which re-encodes the payload and names what is
wrong.

:func:`load_or_quarantine` is the tolerant read path: a damaged (or
legacy unversioned) file is moved to ``<cache>/quarantine/`` — never
deleted, so it stays available for debugging — the
``resilience.quarantined`` counter ticks, and the caller recomputes
instead of crashing.

:class:`CacheScan` is the integrity report ``repro doctor`` prints,
filled by :meth:`repro.store.ResultStore.scan`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CacheIntegrityError
from repro.obs import get_obs, logger

#: Bump when the envelope (not the payload) layout changes; readers
#: quarantine anything they do not recognize and recompute.
SCHEMA_VERSION = 1

ENVELOPE_KEY = "__repro_cache__"
QUARANTINE_DIRNAME = "quarantine"


class LegacyCacheEntry(CacheIntegrityError):
    """Valid JSON but no envelope: written before cache versioning.

    Treated exactly like damage on the read path (quarantine once,
    recompute) but reported separately by ``repro doctor``.
    """


def _canonical_bytes(document: object) -> bytes:
    """Sorted keys, compact separators, ASCII: what is hashed and written."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("ascii")


def payload_checksum(payload: Dict[str, object]) -> str:
    """sha256 hex digest of the canonical JSON serialization."""
    return hashlib.sha256(_canonical_bytes(payload)).hexdigest()


def wrap_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Wrap a memo payload in the versioned checksum envelope."""
    return {
        ENVELOPE_KEY: {
            "schema": SCHEMA_VERSION,
            "checksum": payload_checksum(payload),
        },
        "payload": payload,
    }


def unwrap_document(
    document: object, source: str = "<memory>"
) -> Dict[str, object]:
    """Verify an envelope and return its payload.

    Raises :class:`CacheIntegrityError` naming ``source`` when the
    document is not an envelope (legacy unversioned entries included),
    carries an unknown schema version, or fails its checksum.
    """
    if not isinstance(document, dict) or ENVELOPE_KEY not in document:
        raise LegacyCacheEntry(
            f"{source}: missing cache envelope (legacy or foreign file)"
        )
    envelope = document[ENVELOPE_KEY]
    if not isinstance(envelope, dict):
        raise CacheIntegrityError(f"{source}: malformed cache envelope")
    schema = envelope.get("schema")
    if schema != SCHEMA_VERSION:
        raise CacheIntegrityError(
            f"{source}: cache schema version {schema!r} != {SCHEMA_VERSION}"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise CacheIntegrityError(f"{source}: cache payload is not an object")
    expected = envelope.get("checksum")
    actual = payload_checksum(payload)
    if expected != actual:
        raise CacheIntegrityError(
            f"{source}: cache checksum mismatch "
            f"(stored {str(expected)[:12]}…, computed {actual[:12]}…)"
        )
    return payload


#: The bytes :func:`atomic_write_payload` puts around an envelope's
#: 64-hex checksum and its payload.  Canonical key order puts
#: ``__repro_cache__`` before ``payload`` and ``checksum`` before ``schema``.
_HEAD = ('{"%s":{"checksum":"' % ENVELOPE_KEY).encode("ascii")
_NECK = ('","schema":%d},"payload":' % SCHEMA_VERSION).encode("ascii")
_CHECKSUM_END = len(_HEAD) + 64
_PAYLOAD_START = _CHECKSUM_END + len(_NECK)


def _hashed_payload(data: bytes) -> Optional[Dict[str, object]]:
    """Payload of a file in the writer's layout whose bytes hash to its checksum.

    ``None`` for any other file.  Writers hash the canonical encoding,
    which a string-keyed payload re-encodes to unchanged after a parse,
    so these bytes are what :func:`unwrap_document` would recompute.
    """
    if not (
        data.startswith(_HEAD)
        and data.startswith(_NECK, _CHECKSUM_END)
        and data.endswith(b"}")
    ):
        return None
    body = data[_PAYLOAD_START:-1]
    stored = data[len(_HEAD):_CHECKSUM_END]
    if hashlib.sha256(body).hexdigest().encode("ascii") != stored:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def load_verified(path: str) -> Dict[str, object]:
    """Read + verify one memo file; any damage raises CacheIntegrityError.

    A file in the writer's layout costs one read, one hash and one
    parse of its payload; any other file goes through
    :func:`unwrap_document`, which names the damage.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        payload = _hashed_payload(data)
        if payload is not None:
            return payload
        # Strict UTF-8, as a text-mode read: json.loads(bytes) would
        # also take a BOM or UTF-16 and widen what verifies.
        document = json.loads(data.decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise CacheIntegrityError(
            f"{path}: unreadable cache file ({type(exc).__name__}: {exc})"
        ) from exc
    return unwrap_document(document, source=path)


def quarantine_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, QUARANTINE_DIRNAME)


def quarantine_file(
    path: str, cache_dir: Optional[str] = None, reason: str = ""
) -> Optional[str]:
    """Move a damaged memo file into ``<cache>/quarantine/``.

    Returns the quarantined path (suffixed on name collisions), or
    ``None`` if the file vanished first.  Never raises on a missing
    source — a concurrent worker may have quarantined it already.
    """
    directory = cache_dir if cache_dir is not None else os.path.dirname(path)
    target_dir = quarantine_path(directory)
    name = os.path.basename(path)
    destination = os.path.join(target_dir, name)
    try:
        os.makedirs(target_dir, exist_ok=True)
        suffix = 0
        while os.path.exists(destination):
            suffix += 1
            destination = os.path.join(target_dir, f"{name}.{suffix}")
        os.replace(path, destination)
    except FileNotFoundError:
        return None
    except OSError as exc:  # pragma: no cover - disk-level failures
        logger.error("could not quarantine %s: %s", path, exc)
        return None
    get_obs().counter("resilience.quarantined")
    logger.warning(
        "quarantined damaged cache file %s -> %s%s",
        path,
        destination,
        f" ({reason})" if reason else "",
    )
    return destination


def load_or_quarantine(
    path: str, cache_dir: Optional[str] = None
) -> Optional[Dict[str, object]]:
    """Tolerant memo read: verified payload, or ``None`` after quarantine.

    This is the read path the runner uses — a truncated, bit-flipped or
    legacy unversioned memo file never crashes a sweep; it is moved
    aside exactly once and the cell recomputes.
    """
    try:
        return load_verified(path)
    except CacheIntegrityError as exc:
        quarantine_file(path, cache_dir=cache_dir, reason=str(exc))
        return None


#: Monotonic sequence making temp names unique *within* a process; the
#: pid/tid components make them unique across processes and threads.
_TMP_SEQ = itertools.count()


def unique_tmp_path(path: str) -> str:
    """A temp name no concurrent writer of ``path`` can collide with.

    A pid-only suffix is not enough: two threads of one process writing
    the same memo key (serve workers completing the same computation)
    would share the temp file and interleave, leaving a torn JSON
    document that gets quarantined on the next read.  The pid + thread
    id + per-process sequence triple is collision-free.
    """
    return (
        f"{path}.tmp.{os.getpid()}.{threading.get_ident()}.{next(_TMP_SEQ)}"
    )


def atomic_write_payload(path: str, payload: Dict[str, object]) -> None:
    """Write ``payload`` in its checksum envelope, atomically.

    The payload is encoded once: those bytes are hashed and written
    between the envelope's head and ``}``, byte for byte what
    :func:`atomic_write_document` writes for :func:`wrap_payload`.
    """
    body = _canonical_bytes(payload)
    checksum = hashlib.sha256(body).hexdigest().encode("ascii")
    _atomic_write_bytes(path, b"".join((_HEAD, checksum, _NECK, body, b"}")))


def atomic_write_document(path: str, document: Dict[str, object]) -> None:
    """Write a JSON document atomically, as its canonical encoding, so
    an envelope's payload bytes are exactly the ones its checksum covers.
    """
    _atomic_write_bytes(path, _canonical_bytes(document))


def _atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` atomically (unique tmp + ``os.replace``).

    Safe under concurrent same-key writers: every writer renames its
    own private temp file over ``path``, so readers only ever see a
    complete file (last writer wins).
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = unique_tmp_path(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -- doctor support -----------------------------------------------------


@dataclass
class CacheScan:
    """Read-only integrity classification of one store."""

    cache_dir: str
    ok: List[str] = field(default_factory=list)
    legacy: List[str] = field(default_factory=list)
    damaged: List[Tuple[str, str]] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when every in-store entry verifies."""
        return not self.legacy and not self.damaged
