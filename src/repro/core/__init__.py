"""Ocelot core: configuration, planning, orchestration and reporting."""

from __future__ import annotations

from .config import OcelotConfig
from .grouping import FileGrouper, GroupFile, GroupingPlan, GroupMember
from .ocelot import Ocelot
from .orchestrator import OcelotOrchestrator, StagedFile
from .parallel import MakespanEstimate, ParallelCostModel, ParallelExecutor
from .phases import PhaseStep
from .planner import CompressionPlan, CompressionPlanner
from .reporting import ModeComparison, PhaseTimings, TransferReport
from .streaming import StreamingPipeline

__all__ = [
    "Ocelot", "OcelotConfig", "OcelotOrchestrator", "StagedFile", "PhaseStep", "CompressionPlan",
    "CompressionPlanner", "ParallelExecutor", "ParallelCostModel", "MakespanEstimate",
    "FileGrouper", "GroupFile", "GroupMember", "GroupingPlan", "StreamingPipeline", "PhaseTimings",
    "TransferReport", "ModeComparison",
]
