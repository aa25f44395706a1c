"""Core dataset containers: a named field and a collection of fields."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import DatasetError
from ..utils.stats import DataSummary, summarize

__all__ = ["Field", "ScientificDataset"]


@dataclass
class Field:
    """One scientific data field (a single file in the paper's terminology)."""

    name: str
    data: np.ndarray
    application: str = ""
    snapshot: int = 0
    units: str = ""
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.size == 0:
            raise DatasetError(f"field {self.name!r} has no data")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the field's array."""
        return tuple(self.data.shape)

    @property
    def nbytes(self) -> int:
        """Uncompressed size in bytes."""
        return int(self.data.nbytes)

    @property
    def filename(self) -> str:
        """Canonical file name used when materialising the field on disk."""
        dims = "x".join(str(d) for d in self.shape)
        return f"{self.application or 'field'}_{self.name}_s{self.snapshot:04d}_{dims}.f32"

    def summary(self) -> DataSummary:
        """Basic statistics of the field (Table I style)."""
        return summarize(self.data)


class ScientificDataset:
    """An ordered collection of fields produced by one application."""

    def __init__(self, name: str, fields: Optional[List[Field]] = None) -> None:
        self.name = name
        self._fields: List[Field] = list(fields or [])
        #: Generator recipe able to rebuild the dataset byte-identically
        #: (set by ``generate_application``); ``None`` for ad-hoc data.
        #: The service's durable job store persists it so crashed jobs
        #: can be re-queued.
        self.recipe: Optional[Dict[str, object]] = None

    def add(self, new_field: Field) -> None:
        """Append a field to the dataset."""
        self._fields.append(new_field)

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __getitem__(self, index: int) -> Field:
        return self._fields[index]

    @property
    def fields(self) -> List[Field]:
        """All fields in insertion order."""
        return list(self._fields)

    @property
    def total_bytes(self) -> int:
        """Total uncompressed size of the dataset in bytes."""
        return sum(f.nbytes for f in self._fields)

    @property
    def file_count(self) -> int:
        """Number of files (fields) in the dataset."""
        return len(self._fields)

    def field_names(self) -> List[str]:
        """Unique field names present in the dataset (order preserved)."""
        seen: Dict[str, None] = {}
        for f in self._fields:
            seen.setdefault(f.name, None)
        return list(seen)

    def describe(self) -> Dict[str, object]:
        """Summary dictionary of dataset size and contents."""
        return {
            "name": self.name,
            "files": self.file_count,
            "total_bytes": self.total_bytes,
            "field_names": self.field_names(),
        }
