"""The merged result of one campaign: every table and figure of the paper.

:class:`SuiteResult` holds one merged container per campaign stage — the
capability matrix (Table 1), the six figure experiments and the load
stage — and renders them as the ASCII report every ``cloudbench``
campaign command prints.  The campaign engine
(:class:`~repro.core.campaign.CampaignRunner`) plans, runs and folds the
cells that fill it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.capabilities import CapabilityMatrix
from repro.core.experiments.compression import CompressionExperimentResult
from repro.core.experiments.datacenters import DataCenterResult
from repro.core.experiments.delta import DeltaResult
from repro.core.experiments.idle import IdleResult
from repro.core.experiments.performance import PerformanceResult
from repro.core.experiments.synseries import SynSeriesResult
from repro.core.report import render_grouped_bars, render_table
from repro.core.workloads import PAPER_WORKLOADS
from repro.load.population import LoadStageResult

__all__ = ["SuiteResult"]


@dataclass
class SuiteResult:
    """Everything a full benchmarking campaign produces."""

    capabilities: Optional[CapabilityMatrix] = None
    idle: Optional[IdleResult] = None
    datacenters: Optional[DataCenterResult] = None
    syn_series: Optional[SynSeriesResult] = None
    delta: Optional[DeltaResult] = None
    compression: Optional[CompressionExperimentResult] = None
    performance: Optional[PerformanceResult] = None
    load: Optional[LoadStageResult] = None

    def summary_text(self) -> str:
        """Human-readable digest of every collected artifact."""
        sections: List[str] = []
        if self.capabilities is not None:
            sections.append(render_table(self.capabilities.rows(), title="Table 1 — capabilities"))
        if self.idle is not None:
            sections.append(render_table(self.idle.rows(), title="Fig. 1 — idle/background traffic"))
        if self.datacenters is not None:
            sections.append(render_table(self.datacenters.rows(), title="Fig. 2 / §3.2 — data centers"))
            edges = self.datacenters.google_edge_sites()
            if edges:
                sections.append(f"Google Drive edge locations discovered: {len(edges)}")
        if self.syn_series is not None:
            sections.append(render_table(self.syn_series.rows(), title="Fig. 3 — TCP connections for 100x10kB"))
        if self.delta is not None:
            sections.append(render_table(self.delta.rows(), title="Fig. 4 — delta encoding"))
        if self.compression is not None:
            sections.append(render_table(self.compression.rows(), title="Fig. 5 — compression"))
        if self.performance is not None:
            workload_order = [workload.name for workload in PAPER_WORKLOADS]
            sections.append(render_table(self.performance.rows(), title="Fig. 6 — aggregated metrics"))
            sections.append(
                render_grouped_bars(
                    self.performance.figure_series("startup"), group_order=workload_order, title="Fig. 6a — start-up time (s)"
                )
            )
            sections.append(
                render_grouped_bars(
                    self.performance.figure_series("completion"),
                    group_order=workload_order,
                    title="Fig. 6b — completion time (s)",
                )
            )
            sections.append(
                render_grouped_bars(
                    self.performance.figure_series("overhead"),
                    group_order=workload_order,
                    value_format="{:.3f}",
                    title="Fig. 6c — protocol overhead (fraction)",
                )
            )
        if self.load is not None:
            sections.append(
                render_table(self.load.rows(), title="Load — open population, tail latency and fairness")
            )
        return "\n\n".join(sections)
