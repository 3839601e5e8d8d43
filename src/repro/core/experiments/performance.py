"""Fig. 6 — the performance benchmarks: start-up, completion time, overhead.

Each (service, workload) pair is run repeatedly on a fresh testbed (new
content every repetition, a cool-down pause between runs) and the three
metrics of §5 are computed from the captured traffic and averaged, exactly
as the paper reports them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import DEFAULT_REPETITIONS
from repro.core.metrics import PerformanceMetrics, aggregate_metrics, compute_performance_metrics
from repro.core.workloads import PAPER_WORKLOADS, WorkloadSpec
from repro.errors import ConfigurationError
from repro.filegen.model import FileKind
from repro.netsim.scenario import ScenarioSpec
from repro.randomness import DEFAULT_SEED, derive_seed
from repro.services.registry import SERVICE_NAMES
from repro.testbed.controller import TestbedController

__all__ = ["FIGURE_METRICS", "PerformanceResult", "PerformanceExperiment"]

#: Number of repetitions used by the paper (24 per experiment and service).
PAPER_REPETITIONS = 24

#: The metrics :meth:`PerformanceResult.figure_series` can plot (Fig. 6a-c).
FIGURE_METRICS = ("startup", "completion", "overhead")


@dataclass
class PerformanceResult:
    """All runs of the performance benchmarks plus per-pair aggregates."""

    runs: List[PerformanceMetrics] = field(default_factory=list)

    def for_pair(self, service: str, workload: str) -> List[PerformanceMetrics]:
        """All repetitions of one (service, workload) pair."""
        return [run for run in self.runs if run.service == service and run.workload == workload]

    def aggregate(self, service: str, workload: str) -> dict:
        """Mean/std aggregate of one (service, workload) pair."""
        return aggregate_metrics(self.for_pair(service, workload))

    def pairs(self) -> List[Tuple[str, str]]:
        """Every (service, workload) pair present, in run order."""
        return list(dict.fromkeys((run.service, run.workload) for run in self.runs))

    def rows(self) -> List[dict]:
        """One aggregated row per (service, workload): the Fig. 6 bar values."""
        rows = []
        for service, workload in self.pairs():
            aggregate = self.aggregate(service, workload)
            rows.append(
                {
                    "service": service,
                    "workload": workload,
                    "startup_s": round(aggregate["startup"].mean, 2),
                    "completion_s": round(aggregate["completion"].mean, 2),
                    "overhead": round(aggregate["overhead"].mean, 3),
                    "throughput_mbps": round(aggregate["throughput_bps"].mean / 1e6, 3),
                    "repetitions": aggregate["repetitions"],
                }
            )
        return rows

    def figure_series(self, metric: str) -> Dict[str, Dict[str, float]]:
        """Fig. 6 panel data: ``{service: {workload: value}}`` for one metric.

        ``metric`` is ``"startup"`` (Fig. 6a), ``"completion"`` (Fig. 6b) or
        ``"overhead"`` (Fig. 6c); anything else raises
        :class:`~repro.errors.ConfigurationError` listing the valid metrics.
        """
        if metric not in FIGURE_METRICS:
            raise ConfigurationError(
                f"unknown figure metric {metric!r}; valid metrics: {', '.join(FIGURE_METRICS)}"
            )
        series: Dict[str, Dict[str, float]] = {}
        for service, workload in self.pairs():
            aggregate = self.aggregate(service, workload)
            series.setdefault(service, {})[workload] = aggregate[metric].mean
        return series


class PerformanceExperiment:
    """Run the §5 benchmarks for a set of services, workloads and repetitions."""

    def __init__(
        self,
        services: Optional[Sequence[str]] = None,
        workloads: Optional[Sequence[WorkloadSpec]] = None,
        repetitions: int = DEFAULT_REPETITIONS,
        file_kind: FileKind = FileKind.BINARY,
        pause_between_runs: float = 300.0,
        seed: int = DEFAULT_SEED,
        scenario: Optional[ScenarioSpec] = None,
    ) -> None:
        self.services = list(services) if services is not None else list(SERVICE_NAMES)
        self.workloads = list(workloads) if workloads is not None else list(PAPER_WORKLOADS)
        self.repetitions = repetitions
        self.file_kind = file_kind
        self.pause_between_runs = pause_between_runs
        self.seed = seed
        self.scenario = scenario

    def run_single(self, service: str, workload: WorkloadSpec, repetition: int = 0) -> PerformanceMetrics:
        """One repetition of one (service, workload) pair on a fresh testbed."""
        controller = TestbedController(service, scenario=self.scenario, seed=self.seed)
        controller.start_session()
        spec = WorkloadSpec(
            name=workload.name,
            file_count=workload.file_count,
            file_size=workload.file_size,
            kind=self.file_kind,
        )
        files = spec.generate(seed=derive_seed(self.seed, service, workload.name), repetition=repetition)
        observation = controller.sync_upload(files, label=workload.name)
        metrics = compute_performance_metrics(observation, workload_label=workload.name)
        controller.pause_between_experiments(self.pause_between_runs)
        controller.end_session()
        return metrics

    def run_pair(self, service: str, workload: WorkloadSpec) -> List[PerformanceMetrics]:
        """All repetitions of one (service, workload) pair, in repetition order.

        This is the campaign engine's unit cell for the performance stage:
        each repetition runs on its own fresh testbed with a seed derived
        from (seed, service, workload), so a pair's runs are independent of
        which other pairs (or services) are benchmarked — and of whether
        they execute in the same worker process.
        """
        return [self.run_single(service, workload, repetition) for repetition in range(self.repetitions)]

    def run_service(self, service: str) -> List[PerformanceMetrics]:
        """Every (workload, repetition) run for one service, in run order."""
        runs: List[PerformanceMetrics] = []
        for workload in self.workloads:
            runs.extend(self.run_pair(service, workload))
        return runs

    def run(self) -> PerformanceResult:
        """Run every (service, workload, repetition) combination."""
        result = PerformanceResult()
        for service in self.services:
            result.runs.extend(self.run_service(service))
        return result
