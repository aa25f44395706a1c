"""The on-disk content-addressed blob cache.

One tier of whole compressed files, one file per entry::

    <cache_dir>/blob/<aa>/<key>.entry

Eviction, :meth:`BlobCache.clear` and the totals walk all of
``cache_dir``, so the ``block/`` subtree an older build wrote still
counts against ``max_bytes`` until it is evicted or cleared.

Each ``.entry`` file is a small self-describing record — magic, a JSON
meta header (provenance: dataset, compressor, error bound) and the raw
payload bytes.  Writes are atomic (temp file + ``os.replace`` in the
same directory), so a concurrent reader sees either the old entry, the
new entry, or a miss — never torn bytes; a record that fails validation
on read is treated as a miss and deleted.  Eviction is size-capped LRU:
every hit touches its entry's mtime, and a put that pushes the tree
over ``max_bytes`` deletes the stalest entries first.  A capped handle
walks the tree once, at its first put, and from then on keeps the order
and the total itself (see ``BlobCache._lru``).
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["BlobCache", "CacheStats"]

_MAGIC = b"OCCH"


@dataclass
class CacheStats:
    """Session counters of one :class:`BlobCache` instance."""

    blob_hits: int = 0
    blob_misses: int = 0
    puts: int = 0
    evictions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def blob_hit_rate(self) -> Optional[float]:
        total = self.blob_hits + self.blob_misses
        return self.blob_hits / total if total else None

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = asdict(self)
        data["blob_hit_rate"] = self.blob_hit_rate
        return data


@dataclass
class _Entry:
    path: str
    size: int
    mtime: float = field(default=0.0)


class BlobCache:
    """Content-addressed blob cache with size-capped LRU eviction."""

    def __init__(
        self,
        cache_dir: str,
        max_bytes: Optional[int] = None,
        mode: str = "readwrite",
    ) -> None:
        if mode not in ("read", "readwrite"):
            raise ValueError(
                f"cache mode must be 'read' or 'readwrite' for an open store, got {mode!r}"
            )
        self.cache_dir = str(cache_dir)
        self.max_bytes = int(max_bytes) if max_bytes else None
        self.mode = mode
        self.stats = CacheStats()
        self._put_counter = 0
        self._known_dirs: set = set()
        #: Eviction index of a capped handle: entry path -> size, least
        #: recently used first, and the bytes it sums to.  Filled by the
        #: first capped put's scan in ``(mtime, path)`` order, then kept
        #: current by this handle's own puts, hits and deletions in the
        #: order they happen: the mtime order whenever one handle writes
        #: at a time, minus the ties of a coarse filesystem clock.  What
        #: other handles wrote since the scan is not in it.
        self._lru: Optional[Dict[str, int]] = None
        self._lru_bytes = 0
        if self.writable:
            os.makedirs(self.cache_dir, exist_ok=True)

    @property
    def writable(self) -> bool:
        """Whether :meth:`put` stores entries (``readwrite`` mode)."""
        return self.mode == "readwrite"

    # ------------------------------------------------------------------ #
    # Paths and record framing
    # ------------------------------------------------------------------ #
    def _entry_path(self, tier: str, key: str) -> str:
        if tier != "blob":
            raise ValueError(f"unknown cache tier {tier!r}")
        return os.path.join(self.cache_dir, tier, key[:2], f"{key}.entry")

    @staticmethod
    def _encode_record(meta: Dict[str, Any], payload: bytes) -> bytes:
        meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
        return b"".join(
            (_MAGIC, struct.pack("<II", len(meta_bytes), len(payload)), meta_bytes, payload)
        )

    @staticmethod
    def _decode_record(data: bytes) -> Tuple[Dict[str, Any], bytes]:
        if len(data) < 12 or data[:4] != _MAGIC:
            raise ValueError("bad cache entry magic")
        meta_len, payload_len = struct.unpack("<II", data[4:12])
        if 12 + meta_len + payload_len != len(data):
            raise ValueError("truncated cache entry")
        meta = json.loads(data[12 : 12 + meta_len].decode("utf-8"))
        return meta, data[12 + meta_len :]

    # ------------------------------------------------------------------ #
    # Get / put
    # ------------------------------------------------------------------ #
    def get(self, tier: str, key: str) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """Look up one entry; returns ``(meta, payload)`` or ``None``.

        A hit refreshes the entry's mtime (the LRU clock).  Entries that
        fail to parse — a crashed writer, manual truncation — count as
        misses and are deleted so they cannot poison later lookups.
        """
        path = self._entry_path(tier, key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
            meta, payload = self._decode_record(raw)
        except FileNotFoundError:
            self.stats.blob_misses += 1
            return None
        except (ValueError, OSError, json.JSONDecodeError):
            self._discard(path)
            self.stats.blob_misses += 1
            return None
        try:
            os.utime(path)
            self._touch(path, len(raw))
        except OSError:
            pass  # entry may have been evicted between read and touch
        self.stats.blob_hits += 1
        self.stats.bytes_read += len(payload)
        return meta, payload

    def put(self, tier: str, key: str, payload: bytes, meta: Optional[Dict[str, Any]] = None) -> bool:
        """Store one entry atomically; returns whether it was written.

        ``read`` mode and rewrites of an existing key are no-ops.  The
        record lands under a unique temp name first and is renamed into
        place, so concurrent readers never observe a partial entry; a
        successful put then evicts the least recently used entries while
        the tree exceeds ``max_bytes`` — never the one just written, so
        a put larger than its peers cannot evict itself into a livelock.
        """
        if not self.writable:
            return False
        path = self._entry_path(tier, key)
        if os.path.exists(path):
            return False
        shard_dir = os.path.dirname(path)
        if shard_dir not in self._known_dirs:
            os.makedirs(shard_dir, exist_ok=True)
            self._known_dirs.add(shard_dir)
        record = self._encode_record(meta or {}, payload)
        self._put_counter += 1
        tmp_path = f"{path}.tmp-{os.getpid()}-{self._put_counter}"
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(record)
            os.replace(tmp_path, path)
        except OSError:
            self._discard(tmp_path)
            return False
        self.stats.puts += 1
        self.stats.bytes_written += len(record)
        if self.max_bytes is not None:
            if self._lru is None:
                entries = sorted(self._scan(), key=lambda entry: (entry.mtime, entry.path))
                self._lru = {entry.path: entry.size for entry in entries}
                self._lru_bytes = sum(self._lru.values())
            self._touch(path, len(record))
            while self._lru_bytes > self.max_bytes and len(self._lru) > 1:
                self._discard(next(iter(self._lru)))  # ``path`` is last
                self.stats.evictions += 1
        return True

    def get_blob(self, key: str) -> Optional[bytes]:
        """Whole-blob tier lookup; returns the serialised blob bytes."""
        found = self.get("blob", key)
        return found[1] if found else None

    def put_blob(self, key: str, payload: bytes, meta: Optional[Dict[str, Any]] = None) -> bool:
        """Store one whole compressed blob."""
        return self.put("blob", key, payload, meta)

    def _touch(self, path: str, size: int) -> None:
        """Make ``path`` the eviction index's most recently used entry."""
        if self._lru is not None:
            self._lru_bytes += size - self._lru.pop(path, 0)
            self._lru[path] = size

    def _discard(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass  # already gone: another handle evicted it
        if self._lru is not None:
            self._lru_bytes -= self._lru.pop(path, 0)

    # ------------------------------------------------------------------ #
    # Eviction and maintenance
    # ------------------------------------------------------------------ #
    def _scan(self, tier: Optional[str] = None) -> List[_Entry]:
        """Every ``.entry`` file under ``tier``'s subtree, or under all of ``cache_dir``."""
        entries: List[_Entry] = []
        root = os.path.join(self.cache_dir, tier) if tier else self.cache_dir
        for dirpath, _, filenames in os.walk(root):
            for filename in filenames:
                if not filename.endswith(".entry"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # concurrently evicted
                entries.append(_Entry(path=path, size=stat.st_size, mtime=stat.st_mtime))
        return entries

    def disk_usage(self, tier: Optional[str] = None) -> int:
        """Total bytes currently stored (optionally one tier)."""
        return sum(entry.size for entry in self._scan(tier))

    def clear(self) -> int:
        """Delete every entry; returns the count."""
        entries = self._scan()
        for entry in entries:
            self._discard(entry.path)
        return len(entries)

    def describe(self) -> Dict[str, Any]:
        """Disk-level summary plus session counters (``ocelot cache stats``)."""
        blob, everything = self._scan("blob"), self._scan()
        return {
            "cache_dir": self.cache_dir,
            "mode": self.mode,
            "max_bytes": self.max_bytes,
            "blob": {"entries": len(blob), "bytes": sum(entry.size for entry in blob)},
            "total_bytes": sum(entry.size for entry in everything),
            "total_entries": len(everything),
            "session": self.stats.as_dict(),
        }
