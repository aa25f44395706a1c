"""The Ocelot client facade.

This is the object users interact with (through Python or the CLI).  It
bundles the three capabilities described in Section V of the paper:

1. selecting a best-qualified compression configuration with the quality
   predictor (:meth:`Ocelot.train_predictor`, :meth:`Ocelot.predict_quality`);
2. reducing transfer time with parallel (de)compression
   (:meth:`Ocelot.transfer_dataset`);
3. remote orchestration on the sites' batch schedulers and the transfer
   service, with analytics collected on the client (:meth:`Ocelot.reports`,
   :meth:`Ocelot.compare_modes`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..datasets.base import Field, ScientificDataset
from ..errors import OrchestrationError
from ..faas.service import SiteTable, build_faas_service
from ..prediction.quality_model import QualityPrediction, QualityPredictor
from ..prediction.training import DEFAULT_ERROR_BOUNDS, build_training_records
from ..transfer.testbed import Testbed, build_testbed
from .config import OcelotConfig
from .orchestrator import OcelotOrchestrator
from .parallel import ParallelCostModel
from .reporting import ModeComparison, TransferReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service import OcelotService

__all__ = ["Ocelot"]


class Ocelot:
    """High-level client for compression-accelerated wide-area transfers."""

    def __init__(
        self,
        config: Optional[OcelotConfig] = None,
        testbed: Optional[Testbed] = None,
        faas: Optional[SiteTable] = None,
        predictor: Optional[QualityPredictor] = None,
        cost_model: Optional[ParallelCostModel] = None,
    ) -> None:
        self.config = config or OcelotConfig()
        self.testbed = testbed or build_testbed()
        self.faas = faas or build_faas_service()
        self.predictor = predictor or QualityPredictor(
            sample_fraction=self.config.sample_fraction
        )
        self._cost_model = cost_model
        self._reports: List[TransferReport] = []
        self._service: Optional["OcelotService"] = None

    # ------------------------------------------------------------------ #
    # Capability 1: quality prediction
    # ------------------------------------------------------------------ #
    def train_predictor(
        self,
        fields: Iterable[Field],
        error_bounds: Sequence[float] = DEFAULT_ERROR_BOUNDS,
        compressors: Optional[Sequence[str]] = None,
    ) -> QualityPredictor:
        """Train the quality predictor on measured compression outcomes."""
        records = build_training_records(
            fields,
            error_bounds=error_bounds,
            compressors=compressors or (self.config.compressor,),
            sample_fraction=self.config.sample_fraction,
        )
        self.predictor.fit(records)
        return self.predictor

    def predict_quality(
        self,
        data: np.ndarray,
        error_bounds: Optional[Sequence[float]] = None,
        compressors: Optional[Sequence[str]] = None,
    ) -> List[QualityPrediction]:
        """Predict compression quality for candidate configurations.

        Runs the predictor sweep directly: it requests no compute nodes,
        so no site's queue-wait stream is drawn from.  A transfer's
        ``plan`` phase bills the same sweep
        (:meth:`OcelotConfig.simulated_planning_s`).
        """
        if not self.predictor.is_fitted:
            raise OrchestrationError(
                "the quality predictor has not been trained; call train_predictor() first"
            )
        bounds = list(error_bounds or self.config.candidate_error_bounds)
        names = list(compressors or [self.config.compressor])
        return self.predictor.predict_sweep(data, bounds, compressors=names)

    def recommend_configuration(
        self,
        data: np.ndarray,
        error_bounds: Optional[Sequence[float]] = None,
        compressors: Optional[Sequence[str]] = None,
        min_psnr_db: Optional[float] = None,
    ) -> QualityPrediction:
        """Return the best-qualified configuration for ``data``."""
        if not self.predictor.is_fitted:
            raise OrchestrationError(
                "the quality predictor has not been trained; call train_predictor() first"
            )
        return self.predictor.recommend(
            data,
            error_bounds=list(error_bounds or self.config.candidate_error_bounds),
            compressors=list(compressors or [self.config.compressor]),
            min_psnr_db=self.config.min_psnr_db if min_psnr_db is None else min_psnr_db,
        )

    # ------------------------------------------------------------------ #
    # Capability 2 + 3: compression-accelerated, remotely orchestrated transfer
    # ------------------------------------------------------------------ #
    def _orchestrator_for(self, config: OcelotConfig) -> OcelotOrchestrator:
        return OcelotOrchestrator(
            config=config,
            testbed=self.testbed,
            faas=self.faas,
            predictor=self.predictor if self.predictor.is_fitted else None,
            cost_model=self._cost_model,
        )

    def _orchestrator(self) -> OcelotOrchestrator:
        return self._orchestrator_for(self.config)

    @property
    def service(self) -> "OcelotService":
        """The job-oriented service behind this client.

        ``transfer_dataset`` / ``compare_modes`` are submit-and-wait
        wrappers over this service; use it directly to run many
        concurrent jobs (``service.submit(TransferSpec(...))``) against
        the client's testbed, site table and trained predictor.
        """
        if self._service is None:
            from ..service import OcelotService

            self._service = OcelotService(
                config=self.config,
                testbed=self.testbed,
                faas=self.faas,
                orchestrator_factory=self._orchestrator_for,
            )
        return self._service

    def transfer_dataset(
        self,
        dataset: ScientificDataset,
        source: str,
        destination: str,
        mode: Optional[str] = None,
    ) -> TransferReport:
        """Transfer a dataset, compressing according to the configuration.

        Thin wrapper: submits one :class:`~repro.service.TransferSpec`
        to the job service and waits for its report.
        """
        from ..service import TransferSpec

        handle = self.service.submit(
            TransferSpec(dataset=dataset, source=source, destination=destination, mode=mode)
        )
        report = handle.result()
        # Match the legacy wrapper's retention: keep only the report, not
        # the finished job record (sweeps would otherwise grow the
        # service without bound).
        self.service.discard(handle.job_id)
        self._reports.append(report)
        return report

    def compare_modes(
        self,
        dataset: ScientificDataset,
        source: str,
        destination: str,
        modes: Sequence[str] = ("direct", "compressed", "grouped"),
    ) -> ModeComparison:
        """Run the same transfer under several modes (Table VIII protocol).

        The testbed is reset between runs — simulation clock back to
        zero *and* per-endpoint staged files cleared — so each mode
        starts from a truly identical state.
        """
        comparison = ModeComparison(dataset=dataset.name, source=source, destination=destination)
        for mode in modes:
            self.testbed.reset_clock()
            report = self.transfer_dataset(dataset, source, destination, mode=mode)
            comparison.add(report)
        return comparison

    # ------------------------------------------------------------------ #
    # Analytics
    # ------------------------------------------------------------------ #
    def reports(self) -> List[TransferReport]:
        """All transfer reports collected by this client."""
        return list(self._reports)
