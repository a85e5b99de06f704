"""Content-addressed cache for textual reports.

Entries are keyed by a canonical string naming the operation, the package
version, a digest of the package's source files and every flag that
influences its output, so changing a convention switch, upgrading the
package or editing its code changes the key and stale results are never
served.  Each entry stores its payload together with a SHA-256 digest; a
digest mismatch on load is treated as corruption and the value is
recomputed.  The cache directory must already exist: a missing directory is
an error, not an invitation to create state in surprise places.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import __version__

SCHEMA = 1


class CacheError(Exception):
    """The cache directory is unusable."""


class CacheCorruption(CacheError):
    """A cache entry exists but cannot be trusted."""


@lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over the name and bytes of every module of the package.

    Read on the first cache_key call and kept for the life of the process,
    so importing the package reads no source file.
    """
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def cache_key(kind: str, **fields) -> str:
    """Canonical key: JSON of the operation kind, package version, source
    digest and flags.

    The version and the digest of the package's sources are part of the key
    so that neither a new release nor an edit that keeps the version is
    served a payload computed by other code; JSON keeps apart values that
    joined name=value text would run together.
    """
    return json.dumps(
        {"kind": kind, "version": __version__, "source": source_digest(),
         "fields": fields},
        sort_keys=True,
        separators=(",", ":"),
    )


def entry_path(cache_dir, key: str) -> Path:
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return Path(cache_dir) / f"{digest}.json"


def _require_dir(cache_dir) -> Path:
    path = Path(cache_dir)
    if not path.is_dir():
        raise CacheError(f"cache directory does not exist: {path}")
    return path


def _payload_digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def store(cache_dir, key: str, payload: str) -> Path:
    """Write an entry; the write is atomic so readers never see halves.

    Each writer fills its own temporary file and renames it into place, so
    concurrent writers of one key never share a half-written file.
    """
    _require_dir(cache_dir)
    path = entry_path(cache_dir, key)
    body = json.dumps(
        {
            "schema": SCHEMA,
            "key": key,
            "digest": _payload_digest(payload),
            "payload": payload,
        },
        sort_keys=True,
    )
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load(cache_dir, key: str):
    """The stored payload, or None on a miss; corruption raises."""
    _require_dir(cache_dir)
    path = entry_path(cache_dir, key)
    if not path.exists():
        return None
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
        schema = entry["schema"]
        stored_key = entry["key"]
        digest = entry["digest"]
        payload = entry["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CacheCorruption(f"unreadable cache entry {path.name}: {exc}") from exc
    if schema != SCHEMA:
        raise CacheCorruption(
            f"cache entry {path.name} has schema {schema}, expected {SCHEMA}"
        )
    if stored_key != key:
        raise CacheCorruption(
            f"cache entry {path.name} belongs to key {stored_key!r}"
        )
    if _payload_digest(payload) != digest:
        raise CacheCorruption(f"hash mismatch in cache entry {path.name}")
    return payload


@dataclass(frozen=True)
class CacheResult:
    payload: str
    hit: bool
    warning: str | None


def fetch(cache_dir, key: str, compute) -> CacheResult:
    """Serve from cache when possible, else compute and fill.

    Corrupted entries are reported in the warning field, recomputed, and
    overwritten; the payload is identical to an uncached run either way.
    """
    warning = None
    try:
        cached = load(cache_dir, key)
    except CacheCorruption as exc:
        warning = f"{exc}; recomputing"
        cached = None
    if cached is not None:
        return CacheResult(cached, True, None)
    payload = compute()
    store(cache_dir, key, payload)
    return CacheResult(payload, False, warning)


def entries(cache_dir):
    """All entry files in the cache directory, in name order."""
    return tuple(sorted(_require_dir(cache_dir).glob("*.json")))


def check(cache_dir):
    """Digest-check every entry; returns (ok_count, list of problems)."""
    ok = 0
    problems = []
    for path in entries(cache_dir):
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if _payload_digest(entry["payload"]) != entry["digest"]:
                raise CacheCorruption(f"hash mismatch in cache entry {path.name}")
            if entry["schema"] != SCHEMA:
                raise CacheCorruption(f"stale schema in cache entry {path.name}")
            ok += 1
        except (ValueError, KeyError, TypeError, CacheCorruption) as exc:
            problems.append(f"{path.name}: {exc}")
    return ok, problems


def clear(cache_dir) -> int:
    """Delete every entry; returns how many were removed."""
    removed = 0
    for path in entries(cache_dir):
        path.unlink()
        removed += 1
    return removed
