"""Declarative transfer requests: the validated front door of the service.

A :class:`TransferSpec` replaces the positional-argument call surface of
``Ocelot.transfer_dataset`` with a request object that is validated *at
submit time*: unknown modes, endpoints or compressors fail before any
staging happens or the simulation clock moves, instead of surfacing deep
inside a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from ..compression import available_compressors
from ..core.config import VALID_MODES, VALID_PRIORITIES, OcelotConfig
from ..errors import OrchestrationError, UnknownCompressorError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets.base import ScientificDataset
    from ..transfer.testbed import Testbed

__all__ = ["TransferSpec"]


@dataclass
class TransferSpec:
    """One transfer request, declaratively.

    Attributes:
        dataset: the dataset to move.
        source / destination: endpoint names on the shared testbed.
        mode: transfer mode (``direct`` / ``compressed`` / ``grouped``);
            ``None`` uses the job configuration's default.
        label: free-form tag carried through job records and events.
        tenant: tenant the job is scheduled under — the unit of fair
            queueing; ``None`` uses the job configuration's default
            tenant.
        priority: strict scheduler priority class (``low`` / ``normal``
            / ``high``); ``None`` uses the configuration's default.
        config: a complete per-job :class:`OcelotConfig`; ``None`` uses
            the service's base configuration.
        overrides: per-job field overrides applied on top of the chosen
            configuration via :meth:`OcelotConfig.with_overrides` (so a
            job can, say, tighten its error bound without rebuilding the
            whole config).
    """

    dataset: "ScientificDataset"
    source: str
    destination: str
    mode: Optional[str] = None
    label: str = ""
    tenant: Optional[str] = None
    priority: Optional[str] = None
    config: Optional[OcelotConfig] = None
    overrides: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def resolve_config(self, base: Optional[OcelotConfig]) -> OcelotConfig:
        """The effective per-job configuration.

        Raises :class:`~repro.errors.ConfigurationError` when an override
        names an unknown field or produces an inconsistent configuration.
        """
        config = self.config or base or OcelotConfig()
        if self.overrides:
            config = config.with_overrides(**self.overrides)
        return config

    def resolved_mode(self, config: OcelotConfig) -> str:
        """The effective transfer mode (spec wins over configuration)."""
        return self.mode or config.mode

    def resolved_tenant(self, config: OcelotConfig) -> str:
        """The effective tenant (spec wins over configuration)."""
        return self.tenant or config.tenant

    def resolved_priority(self, config: OcelotConfig) -> str:
        """The effective priority class (spec wins over configuration)."""
        return self.priority or config.priority

    def validate(self, base: Optional[OcelotConfig], testbed: "Testbed") -> OcelotConfig:
        """Validate the request against the testbed; returns the job config.

        Every check runs before staging or clock advancement:

        * override fields and values (``ConfigurationError``),
        * the transfer mode (``OrchestrationError``),
        * both endpoint names and the WAN route between them
          (``OrchestrationError``),
        * the compressor registry name (``UnknownCompressorError``, a
          ``ConfigurationError``),
        * a non-empty dataset (``OrchestrationError``).
        """
        config = self.resolve_config(base)
        mode = self.resolved_mode(config)
        if mode not in VALID_MODES:
            raise OrchestrationError(
                f"unknown transfer mode {mode!r}; valid modes: {VALID_MODES}"
            )
        if not self.resolved_tenant(config):
            raise OrchestrationError("tenant must be a non-empty string")
        priority = self.resolved_priority(config)
        if priority not in VALID_PRIORITIES:
            raise OrchestrationError(
                f"unknown priority {priority!r}; valid classes: {VALID_PRIORITIES}"
            )
        known = testbed.service.endpoints()
        for role, name in (("source", self.source), ("destination", self.destination)):
            if name not in known:
                raise OrchestrationError(
                    f"unknown {role} endpoint {name!r}; registered endpoints: {known}"
                )
        if self.source == self.destination:
            raise OrchestrationError(
                f"source and destination are both {self.source!r}; a transfer "
                "needs two distinct endpoints"
            )
        if not testbed.service.topology.has_link(self.source, self.destination):
            raise OrchestrationError(
                f"no WAN link between {self.source!r} and {self.destination!r}"
            )
        if config.compressor not in available_compressors():
            raise UnknownCompressorError(
                f"unknown compressor {config.compressor!r}; available: "
                f"{available_compressors()}"
            )
        if getattr(self.dataset, "file_count", 0) <= 0:
            raise OrchestrationError(
                f"dataset {getattr(self.dataset, 'name', self.dataset)!r} "
                "contains no files to transfer"
            )
        return config

    def describe(self) -> Dict[str, object]:
        """Flat summary of the request (for job records and the CLI)."""
        return {
            "dataset": getattr(self.dataset, "name", str(self.dataset)),
            "source": self.source,
            "destination": self.destination,
            "mode": self.mode,
            "label": self.label,
            "tenant": self.tenant,
            "priority": self.priority,
            "overrides": dict(self.overrides),
        }
