"""Fig. 3 — cumulative TCP SYNs while uploading 100 files of 10 kB.

The figure exposes the per-file connection management of Google Drive (one
TCP/SSL connection per file: 100 connections in ~30 s) and Amazon Cloud
Drive (three control connections per file operation on top of the storage
connection: 400 connections in ~55 s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.capture import analysis
from repro.core import SYN_SERIES_SERVICES
from repro.core.workloads import WorkloadSpec, workload_by_name
from repro.netsim.scenario import ScenarioSpec
from repro.randomness import DEFAULT_SEED
from repro.testbed.controller import TestbedController

__all__ = ["SynSeriesServiceResult", "SynSeriesResult", "SynSeriesExperiment"]


@dataclass
class SynSeriesServiceResult:
    """Connection-count time series for one service."""

    service: str
    workload: str
    series: List[Tuple[float, int]] = field(default_factory=list)
    total_connections: int = 0
    completion_time: float = 0.0


@dataclass
class SynSeriesResult:
    """Fig. 3 data."""

    services: Dict[str, SynSeriesServiceResult] = field(default_factory=dict)

    def rows(self) -> List[dict]:
        """Per-service totals (connections opened and upload duration)."""
        return [
            {
                "service": result.service,
                "workload": result.workload,
                "connections": result.total_connections,
                "duration_s": round(result.completion_time, 1),
            }
            for result in self.services.values()
        ]

    def series(self) -> Dict[str, List[Tuple[float, int]]]:
        """The plotted series: cumulative SYN count against time, per service."""
        return {name: result.series for name, result in self.services.items()}


class SynSeriesExperiment:
    """Upload the 100 × 10 kB workload and count connections over time."""

    def __init__(
        self,
        services: Optional[Sequence[str]] = None,
        workload: Optional[WorkloadSpec] = None,
        seed: int = DEFAULT_SEED,
        scenario: Optional[ScenarioSpec] = None,
    ) -> None:
        self.services = list(services) if services is not None else list(SYN_SERIES_SERVICES)
        self.workload = workload if workload is not None else workload_by_name("100x10kB")
        self.seed = seed
        self.scenario = scenario

    def run_service(self, service: str) -> SynSeriesServiceResult:
        """Run the workload against one service and extract the SYN series."""
        controller = TestbedController(service, scenario=self.scenario, seed=self.seed)
        controller.start_session()
        files = self.workload.generate(self.seed)
        observation = controller.sync_upload(files, label=f"synseries-{self.workload.name}")
        series = analysis.syn_time_series(observation.trace, relative=True)
        completion = analysis.completion_time(observation.trace, observation.storage_hostnames, after=observation.window_start)
        return SynSeriesServiceResult(
            service=service,
            workload=self.workload.name,
            series=series,
            total_connections=len(series),
            completion_time=completion,
        )

    def run(self) -> SynSeriesResult:
        """Run the workload against every configured service."""
        result = SynSeriesResult()
        for service in self.services:
            result.services[service] = self.run_service(service)
        return result
