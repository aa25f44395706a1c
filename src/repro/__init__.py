"""Ocelot: error-bounded lossy compression for wide-area scientific data transfer.

This package is a from-scratch reproduction of the system described in
*"Optimizing Scientific Data Transfer on Globus with Error-bounded Lossy
Compression"* (ICDCS 2023).  It provides:

* ``repro.compression`` — prediction-based error-bounded lossy compressors
  (SZ2/SZ3-style pipelines) plus a transform-based (ZFP-like) baseline.
* ``repro.features`` / ``repro.ml`` / ``repro.prediction`` — the
  compression-quality prediction model (ratio, time, PSNR).
* ``repro.datasets`` — synthetic scientific datasets matching the
  applications used in the paper (CESM, RTM, Miranda, Nyx, ISABEL, ...).
* ``repro.transfer`` — a simulated Globus-style wide-area transfer
  substrate (endpoints, WAN model, GridFTP-style concurrency).
* ``repro.faas`` — the simulated FuncX sites: each one's partition size
  and batch-scheduler node waiting time.
* ``repro.core`` — the Ocelot client itself: planner, parallel
  compression, file grouping, the sentinel fallback and the end-to-end
  orchestrator.

Quickstart::

    from repro import Ocelot, OcelotConfig
    from repro.datasets import generate_application
    from repro.transfer import build_testbed

    testbed = build_testbed()
    dataset = generate_application("cesm", snapshots=2)
    ocelot = Ocelot(OcelotConfig(error_bound=1e-3), testbed=testbed)
    report = ocelot.transfer_dataset(dataset, source="anvil", destination="cori")
    print(report.summary())
"""

from __future__ import annotations

from typing import Any

from .version import __version__
from .errors import (
    CompressionError, ConfigurationError, DatasetError, ErrorBoundViolation, FaaSError,
    ModelNotFittedError, ReproError, TransferError,
)

__all__ = [
    "__version__", "Ocelot", "OcelotConfig", "TransferReport", "OcelotService", "TransferSpec",
    "JobHandle", "JobStatus", "JobEvent", "ReproError", "ConfigurationError", "CompressionError",
    "ErrorBoundViolation", "DatasetError", "TransferError", "FaaSError", "ModelNotFittedError",
]

# The heavyweight Ocelot facade and the job service are imported lazily
# (PEP 562) so that the compression / ML / dataset subpackages can be
# used standalone without paying the import cost of the orchestration
# layers.
_LAZY_CORE_EXPORTS = {"Ocelot", "OcelotConfig", "TransferReport"}
_LAZY_SERVICE_EXPORTS = {"OcelotService", "TransferSpec", "JobHandle", "JobStatus", "JobEvent"}


def __getattr__(name: str) -> Any:
    if name in _LAZY_CORE_EXPORTS:
        from . import core

        return getattr(core, name)
    if name in _LAZY_SERVICE_EXPORTS:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
