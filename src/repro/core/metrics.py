"""Benchmark metrics computed from captured traffic (§5).

Three metrics are reported per (service, workload) pair:

* **synchronization start-up** — from the moment files start being modified
  until the first packet of a storage flow (§5.1, Fig. 6a);
* **completion time** — first to last payload packet on storage flows
  (§5.2, Fig. 6b);
* **protocol overhead** — total storage plus control traffic divided by the
  benchmark size (§5.3, Fig. 6c).

All three are derived from an :class:`~repro.testbed.controller.Observation`
— i.e. from the packet trace and the workload description, never from the
client's internal state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import CaptureError, ExperimentError

if TYPE_CHECKING:
    from repro.testbed.controller import Observation

__all__ = [
    "PerformanceMetrics",
    "MetricAggregate",
    "quantile",
    "compute_performance_metrics",
    "aggregate_metrics",
]


@dataclass(frozen=True)
class PerformanceMetrics:
    """The paper's three performance metrics for one experiment run."""

    service: str
    workload: str
    startup_time: float
    completion_time: float
    overhead_fraction: float
    total_traffic_bytes: int
    storage_payload_bytes: int
    upload_throughput_bps: float


def _quantile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolation quantile of an ascending-sorted, non-empty sequence.

    Uses the ``(n - 1) * fraction`` order-statistic position (the common
    "linear" method), so the result is a pure function of the values —
    deterministic across platforms, which the sweep documents rely on.
    """
    position = (len(ordered) - 1) * fraction
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def quantile(ordered: Sequence[float], fraction: float) -> float:
    """Public alias of the linear-interpolation quantile.

    The tail summaries in :mod:`repro.load.metrics` reuse this exact
    interpolation so a p99 there and a median here are the same
    order-statistic convention.
    """
    return _quantile(ordered, fraction)


@dataclass(frozen=True)
class MetricAggregate:
    """Robust summary statistics of one metric over repeated samples.

    Serves both the intra-cell repetitions of one experiment and the
    cross-seed aggregation of a sweep (:mod:`repro.core.sweep`): mean,
    population standard deviation, median, quartiles (``q1``/``q3``, linear
    interpolation), extrema and the sample count.  Use
    :meth:`from_values` — the quantile fields of a hand-built instance
    default to ``0.0``.
    """

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int
    median: float = 0.0
    q1: float = 0.0
    q3: float = 0.0

    @property
    def iqr(self) -> float:
        """Interquartile range: ``q3 - q1``."""
        return self.q3 - self.q1

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MetricAggregate":
        """Aggregate a non-empty sequence of values."""
        if not values:
            raise ExperimentError("cannot aggregate an empty list of values")
        mean = sum(values) / len(values)
        variance = sum((value - mean) ** 2 for value in values) / len(values)
        ordered = sorted(values)
        return cls(
            mean=mean,
            std=math.sqrt(variance),
            minimum=ordered[0],
            maximum=ordered[-1],
            count=len(ordered),
            median=_quantile(ordered, 0.5),
            q1=_quantile(ordered, 0.25),
            q3=_quantile(ordered, 0.75),
        )


def compute_performance_metrics(observation: Observation, workload_label: Optional[str] = None) -> PerformanceMetrics:
    """Compute the Fig. 6 metrics for one upload observation."""
    from repro.capture import analysis

    if observation.benchmark_bytes <= 0:
        raise CaptureError("performance metrics need a workload with a positive benchmark size")
    if observation.modification_time is None:
        raise CaptureError("performance metrics need the file modification timestamp")
    trace = observation.trace
    storage_hosts = observation.storage_hostnames
    startup = analysis.startup_time(trace, observation.modification_time, storage_hosts)
    completion = analysis.completion_time(trace, storage_hosts, after=observation.window_start)
    overhead = analysis.overhead_fraction(trace, observation.benchmark_bytes, after=observation.window_start)
    storage_payload = trace.to_hosts(storage_hosts).uploaded_payload_bytes()
    throughput = analysis.upload_throughput_bps(trace, storage_hosts)
    return PerformanceMetrics(
        service=observation.service,
        workload=workload_label or observation.label,
        startup_time=startup,
        completion_time=completion,
        overhead_fraction=overhead,
        total_traffic_bytes=trace.total_bytes(),
        storage_payload_bytes=storage_payload,
        upload_throughput_bps=throughput,
    )


def aggregate_metrics(metrics: Sequence[PerformanceMetrics]) -> dict:
    """Aggregate repeated runs of the same (service, workload) pair.

    Returns a dictionary with one :class:`MetricAggregate` per metric, plus
    the identifying service and workload labels (which must be homogeneous
    across the input).
    """
    if not metrics:
        raise ExperimentError("cannot aggregate an empty metric list")
    services = {metric.service for metric in metrics}
    workloads = {metric.workload for metric in metrics}
    if len(services) != 1 or len(workloads) != 1:
        raise ExperimentError("aggregate_metrics() expects runs of a single (service, workload) pair")
    return {
        "service": next(iter(services)),
        "workload": next(iter(workloads)),
        "startup": MetricAggregate.from_values([metric.startup_time for metric in metrics]),
        "completion": MetricAggregate.from_values([metric.completion_time for metric in metrics]),
        "overhead": MetricAggregate.from_values([metric.overhead_fraction for metric in metrics]),
        "throughput_bps": MetricAggregate.from_values([metric.upload_throughput_bps for metric in metrics]),
        "repetitions": len(metrics),
    }
