"""Transfer reports: per-phase timings and end-to-end comparisons.

Ocelot stores analytics about every transfer on the user's machine; the
report objects here are that record, and their fields line up with the
columns of Table VIII (T/Speed for NP/CP/OP, CPTime, DPTime, Total T,
performance gain).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..compression.interface import require_error_bound
from ..utils.sizes import format_bytes, format_duration, format_rate
from ..utils.stats import _difference, psnr_from_mse

__all__ = ["PhaseTimings", "QualityTally", "TransferReport", "ModeComparison"]


class QualityTally:
    """Reconstruction quality of a transfer, one decoded file at a time.

    The destination step both paths share measures every reconstruction
    here, so a report's PSNR / max error mean the same thing whichever
    way the bytes travelled.
    """

    def __init__(self) -> None:
        self._psnr_db: List[float] = []
        self._max_abs_error: List[float] = []

    @staticmethod
    def measure(
        original: np.ndarray, recon: np.ndarray, bound_abs: float
    ) -> Tuple[float, float]:
        """``(psnr_db, max_abs_error)`` of one reconstruction, checked against ``bound_abs``.

        The PSNR peak is the float64-cast extrema's range and the one float64
        array the difference (by promotion): neither input is copied to float64.
        """
        original = np.asarray(original)
        diff = _difference(original, recon)
        max_abs_error = float(np.max(np.abs(diff, out=diff)))
        lo, hi = np.float64(original.min()), np.float64(original.max())
        require_error_bound(max_abs_error, bound_abs, float(max(abs(lo), abs(hi))), recon.dtype)
        peak = float(hi - lo)
        return psnr_from_mse(float(np.mean(np.square(diff, out=diff))), peak), max_abs_error

    def add(self, psnr_db: float, max_abs_error: float) -> None:
        """Record one file's :meth:`measure`, in file order."""
        self._psnr_db.append(psnr_db)
        self._max_abs_error.append(max_abs_error)

    def summary(self) -> Dict[str, float]:
        """Mean finite PSNR and worst absolute error (absent when empty)."""
        finite = [p for p in self._psnr_db if np.isfinite(p)]
        out: Dict[str, float] = {}
        if finite:
            out["psnr"] = float(np.mean(finite))
        if self._max_abs_error:
            out["max_abs_error"] = float(np.max(self._max_abs_error))
        return out


@dataclass
class PhaseTimings:
    """Per-phase simulated durations of one Ocelot transfer."""

    node_wait_s: float = 0.0
    planning_s: float = 0.0
    compression_s: float = 0.0
    grouping_s: float = 0.0
    transfer_s: float = 0.0
    raw_transfer_s: float = 0.0
    decompression_s: float = 0.0
    #: Overlapped makespan of a streamed transfer.  When set, it replaces
    #: the serialized compression + transfer + decompression sum in
    #: ``total_s`` (those three still record what each phase would cost in
    #: isolation, so reports can show the overlap savings).
    streaming_s: float = 0.0

    @property
    def serialized_s(self) -> float:
        """Compression, transfer and decompression run one after another."""
        return self.compression_s + self.transfer_s + self.decompression_s

    @property
    def total_s(self) -> float:
        """End-to-end duration.

        The sentinel overlaps raw transfer with node waiting, so the wait
        phase contributes ``max(node_wait, raw transfer)``.  A streamed
        transfer overlaps compression, WAN transfer and decompression, so
        its makespan (``streaming_s``) replaces their sum; the bulk path
        keeps the paper's sequential Total T accounting.
        """
        waiting = max(self.node_wait_s, self.raw_transfer_s)
        pipeline = self.streaming_s if self.streaming_s > 0 else self.serialized_s
        return waiting + self.planning_s + self.grouping_s + pipeline

    def as_dict(self) -> Dict[str, float]:
        """Return all phases plus the total as a dictionary."""
        data = asdict(self)
        data["total_s"] = self.total_s
        return data


@dataclass
class TransferReport:
    """Complete record of one dataset transfer."""

    dataset: str
    mode: str
    source: str
    destination: str
    file_count: int
    total_bytes: int
    transferred_files: int
    transferred_bytes: int
    compression_ratio: float
    timings: PhaseTimings
    direct_transfer_s: Optional[float] = None
    compressor: str = ""
    error_bound: str = ""
    transfer_mode: str = "bulk"
    predicted_quality: Optional[Dict[str, float]] = None
    measured_psnr_db: Optional[float] = None
    max_abs_error: Optional[float] = None
    notes: List[str] = field(default_factory=list)
    #: Whole-blob cache outcome of the compress phase: files whose
    #: compressed bytes came straight from the content-addressed cache
    #: vs. files that were really compressed.  Both stay zero when the
    #: cache is off, which keeps ``cache_hit_rate`` ``None``.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Entropy stage(s) of the blobs that crossed (comma-joined when a
    #: job mixes compressors), and the per-codec block counts of the
    #: multi-block ones' index entries — e.g. ``{"huffman": 1, "rans":
    #: 63}`` when one rANS block degraded to Huffman.  Read at the
    #: destination for every blob, fresh, cached or streamed; empty/None
    #: for direct transfers.
    entropy_stage: str = ""
    block_codecs: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------ #
    @property
    def total_s(self) -> float:
        """End-to-end duration of this transfer."""
        return self.timings.total_s

    @property
    def effective_speed_bps(self) -> float:
        """Original dataset bytes divided by the end-to-end time."""
        if self.total_s <= 0:
            return float("inf")
        return self.total_bytes / self.total_s

    @property
    def wire_speed_bps(self) -> float:
        """Bytes actually moved over the WAN divided by the transfer phase time."""
        if self.timings.transfer_s <= 0:
            return float("inf")
        return self.transferred_bytes / self.timings.transfer_s

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Fraction of files served from the blob cache (``None`` when off)."""
        total = self.cache_hits + self.cache_misses
        if total <= 0:
            return None
        return self.cache_hits / total

    @property
    def gain_vs_direct(self) -> Optional[float]:
        """The paper's "Reduced" column: ``(T_direct - Total T) / T_direct``."""
        if self.direct_transfer_s is None or self.direct_transfer_s <= 0:
            return None
        return (self.direct_transfer_s - self.total_s) / self.direct_transfer_s

    def as_dict(self) -> Dict[str, object]:
        """Flatten the report to a dictionary (for JSON/analysis tooling)."""
        return {
            "dataset": self.dataset,
            "mode": self.mode,
            "source": self.source,
            "destination": self.destination,
            "file_count": self.file_count,
            "total_bytes": self.total_bytes,
            "transferred_files": self.transferred_files,
            "transferred_bytes": self.transferred_bytes,
            "compression_ratio": self.compression_ratio,
            "compressor": self.compressor,
            "error_bound": self.error_bound,
            "transfer_mode": self.transfer_mode,
            "timings": self.timings.as_dict(),
            "direct_transfer_s": self.direct_transfer_s,
            "total_s": self.total_s,
            "gain_vs_direct": self.gain_vs_direct,
            "measured_psnr_db": self.measured_psnr_db,
            "max_abs_error": self.max_abs_error,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "entropy_stage": self.entropy_stage,
            "block_codecs": dict(self.block_codecs) if self.block_codecs else None,
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"Transfer of {self.dataset!r}: {self.source} -> {self.destination} [{self.mode}]",
            f"  files: {self.file_count}  volume: {format_bytes(self.total_bytes)}"
            f"  wire volume: {format_bytes(self.transferred_bytes)}"
            f"  ratio: {self.compression_ratio:.2f}x",
            f"  phases: wait {format_duration(self.timings.node_wait_s)}"
            f" | compress {format_duration(self.timings.compression_s)}"
            f" | transfer {format_duration(self.timings.transfer_s)}"
            f" | decompress {format_duration(self.timings.decompression_s)}",
            f"  total: {format_duration(self.total_s)}"
            f"  effective: {format_rate(self.effective_speed_bps)}",
        ]
        if self.timings.streaming_s > 0:
            lines.append(
                f"  streamed makespan: {format_duration(self.timings.streaming_s)}"
                f" (phases serialised would take {format_duration(self.timings.serialized_s)})"
            )
        if self.direct_transfer_s is not None:
            gain = self.gain_vs_direct or 0.0
            lines.append(
                f"  direct transfer: {format_duration(self.direct_transfer_s)}"
                f"  reduction: {gain * 100:.0f}%"
            )
        if self.measured_psnr_db is not None:
            lines.append(f"  quality: PSNR {self.measured_psnr_db:.1f} dB")
        if self.entropy_stage:
            line = f"  entropy: {self.entropy_stage}"
            if self.block_codecs:
                split = ", ".join(
                    f"{codec}: {self.block_codecs[codec]}"
                    for codec in sorted(self.block_codecs)
                )
                line += f" (blocks by codec: {split})"
            lines.append(line)
        return "\n".join(lines)


@dataclass
class ModeComparison:
    """Reports for the same dataset/route under different transfer modes."""

    dataset: str
    source: str
    destination: str
    reports: Dict[str, TransferReport] = field(default_factory=dict)

    def add(self, report: TransferReport) -> None:
        """Record a report under its mode name."""
        self.reports[report.mode] = report

    def table_row(self) -> Dict[str, object]:
        """One Table VIII-style row comparing the recorded modes."""
        direct = self.reports.get("direct")
        compressed = self.reports.get("compressed")
        grouped = self.reports.get("grouped")
        row: Dict[str, object] = {
            "dataset": self.dataset,
            "direction": f"{self.source}->{self.destination}",
        }
        if direct:
            row["T(NP)_s"] = round(direct.timings.transfer_s, 2)
            row["Speed(NP)_MBps"] = round(direct.wire_speed_bps / 1e6, 1)
        if compressed:
            row["T(CP)_s"] = round(compressed.timings.transfer_s, 2)
            row["Speed(CP)_MBps"] = round(compressed.wire_speed_bps / 1e6, 1)
        if grouped:
            row["T(OP)_s"] = round(grouped.timings.transfer_s, 2)
            row["Speed(OP)_MBps"] = round(grouped.wire_speed_bps / 1e6, 1)
        best = grouped or compressed
        if best:
            row["CPTime_s"] = round(best.timings.compression_s, 2)
            row["DPTime_s"] = round(best.timings.decompression_s, 2)
            row["TotalT_s"] = round(best.total_s, 2)
            if best.gain_vs_direct is not None:
                row["Reduced_pct"] = round(100 * best.gain_vs_direct, 1)
        return row
