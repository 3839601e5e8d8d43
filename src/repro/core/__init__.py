"""The benchmarking framework — the paper's primary contribution.

Everything in this package works exclusively from the traffic captured at
the test computer (plus the workloads it generates), exactly like the
paper's testing application:

* :mod:`repro.core.workloads` — the file batches of §2.3/§5 and of the §4
  capability checks;
* :mod:`repro.core.metrics` — synchronization start-up, completion time,
  protocol overhead and throughput, computed from packet traces;
* :mod:`repro.core.capabilities` — traffic-based probes for chunking,
  bundling, deduplication, delta encoding and compression (Table 1);
* :mod:`repro.core.experiments` — one experiment class per figure/table of
  the evaluation;
* :mod:`repro.core.campaign` — the campaign engine: runs every (stage,
  service, unit, seed) cell and merges each seed's cells' rows into one
  :mod:`repro.core.runner` ``SuiteResult``, reduced across seeds by
  :mod:`repro.core.sweep`;
* :mod:`repro.core.report` — plain-text/CSV rendering of the paper's tables
  and figure series.
"""

from repro.core.workloads import (
    WorkloadSpec,
    PAPER_WORKLOADS,
    BUNDLING_FILE_COUNTS,
    DELTA_APPEND_SIZES,
    DELTA_RANDOM_SIZES,
    COMPRESSION_SIZES,
    workload_by_name,
)
from repro.core.metrics import PerformanceMetrics, MetricAggregate, compute_performance_metrics, aggregate_metrics
from repro.core.capabilities import (
    CapabilityMatrix,
    CapabilityProber,
    ChunkingResult,
    BundlingResult,
    DeduplicationResult,
    DeltaEncodingResult,
    CompressionResult,
)
from repro.core.runner import SuiteResult
from repro.core.sweep import SweepResult, sweep_from_results
from repro.core.report import render_table, to_csv

__all__ = [
    "WorkloadSpec",
    "PAPER_WORKLOADS",
    "BUNDLING_FILE_COUNTS",
    "DELTA_APPEND_SIZES",
    "DELTA_RANDOM_SIZES",
    "COMPRESSION_SIZES",
    "workload_by_name",
    "PerformanceMetrics",
    "MetricAggregate",
    "compute_performance_metrics",
    "aggregate_metrics",
    "CapabilityMatrix",
    "CapabilityProber",
    "ChunkingResult",
    "BundlingResult",
    "DeduplicationResult",
    "DeltaEncodingResult",
    "CompressionResult",
    "SuiteResult",
    "SweepResult",
    "sweep_from_results",
    "render_table",
    "to_csv",
]
