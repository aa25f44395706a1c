"""In-memory simulated filesystem attached to an endpoint.

Files either carry real payload bytes (used when Ocelot actually
compresses/decompresses data end-to-end) or only a byte size (used by
large-scale throughput benchmarks where materialising hundreds of
gigabytes would be pointless).  Both kinds flow through the same
transfer code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..errors import FileNotFoundOnEndpointError, TransferError

__all__ = ["FileEntry", "SimulatedFileSystem"]


@dataclass
class FileEntry:
    """One file on a simulated filesystem."""

    path: str
    size_bytes: int
    data: Optional[bytes] = None
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A declared size may exceed the stored payload: benchmarks stage
        # scaled-down arrays while declaring the paper-scale byte size so
        # the WAN model sees realistic volumes.
        if self.data is not None and self.size_bytes <= 0:
            self.size_bytes = len(self.data)
        if self.size_bytes < 0:
            raise TransferError(f"file {self.path!r} has negative size")


def _normalize(path: str) -> str:
    cleaned = "/".join(part for part in path.replace("\\", "/").split("/") if part)
    return "/" + cleaned


class SimulatedFileSystem:
    """A flat path -> :class:`FileEntry` store with directory-style queries."""

    def __init__(self) -> None:
        self._files: Dict[str, FileEntry] = {}

    # ------------------------------------------------------------------ #
    def write(self, path: str, data: Optional[bytes] = None, size_bytes: Optional[int] = None,
              metadata: Optional[Dict[str, str]] = None) -> FileEntry:
        """Create or overwrite a file with payload bytes or a declared size."""
        norm = _normalize(path)
        if data is None and size_bytes is None:
            raise TransferError(f"file {path!r} needs either data or size_bytes")
        declared = int(size_bytes) if size_bytes is not None else len(data or b"")
        entry = FileEntry(
            path=norm,
            size_bytes=declared,
            data=bytes(data) if data is not None else None,
            metadata=dict(metadata or {}),
        )
        self._files[norm] = entry
        return entry

    def read(self, path: str) -> bytes:
        """Return the payload bytes of a file (error if size-only)."""
        entry = self.stat(path)
        if entry.data is None:
            raise TransferError(f"file {path!r} has no materialised payload")
        return entry.data

    def stat(self, path: str) -> FileEntry:
        """Return the :class:`FileEntry` at ``path``."""
        norm = _normalize(path)
        try:
            return self._files[norm]
        except KeyError as exc:
            raise FileNotFoundOnEndpointError(f"no such file: {path!r}") from exc

    def exists(self, path: str) -> bool:
        """Whether a file exists at ``path``."""
        return _normalize(path) in self._files

    def list(self, prefix: str = "/") -> List[FileEntry]:
        """All files whose path starts with ``prefix`` (sorted by path)."""
        norm = _normalize(prefix)
        if norm != "/":
            norm = norm + "/"
            matches = [e for p, e in self._files.items() if p.startswith(norm) or p == norm[:-1]]
        else:
            matches = list(self._files.values())
        return sorted(matches, key=lambda e: e.path)

    def paths(self, prefix: str = "/") -> List[str]:
        """Paths of all files under ``prefix``."""
        return [entry.path for entry in self.list(prefix)]

    def total_bytes(self, prefix: str = "/") -> int:
        """Total size of all files under ``prefix``."""
        return sum(entry.size_bytes for entry in self.list(prefix))

    def file_count(self, prefix: str = "/") -> int:
        """Number of files under ``prefix``."""
        return len(self.list(prefix))

    def remove_prefix(self, prefix: str) -> int:
        """Delete every file under ``prefix``; returns the number removed."""
        doomed = [entry.path for entry in self.list(prefix)]
        for path in doomed:
            del self._files[path]
        return len(doomed)

    def copy_from(self, other: "SimulatedFileSystem", paths: Iterable[str]) -> List[FileEntry]:
        """Copy entries from another filesystem (used by the transfer service)."""
        copied = []
        for path in paths:
            entry = other.stat(path)
            copied.append(
                self.write(
                    entry.path,
                    data=entry.data,
                    size_bytes=entry.size_bytes,
                    metadata=entry.metadata,
                )
            )
        return copied
