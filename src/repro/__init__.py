"""repro — a benchmarking framework for personal cloud storage services.

This library reproduces *"Benchmarking Personal Cloud Storage"* (Drago,
Bocchi, Mellia, Slatman, Pras — ACM IMC 2013): an active-measurement
methodology that discovers the architecture of personal cloud storage
services, checks which client capabilities they implement and benchmarks the
performance consequences of those design choices.

Because live service accounts and real packet capture are not available,
the five services studied by the paper are provided as faithful simulation
models (see ``DESIGN.md`` for the substitution rationale); the benchmarking
framework itself only ever looks at the traffic those models emit, exactly
as the paper's testbed does.

Quick start::

    from repro import PerformanceExperiment

    result = PerformanceExperiment(services=["dropbox", "googledrive"], repetitions=3).run()
    for row in result.rows():
        print(row)

See ``examples/`` for complete, runnable scenarios and ``benchmarks/`` for
the scripts regenerating every table and figure of the paper.
"""

from repro.core.capabilities import CapabilityMatrix, CapabilityProber
from repro.core.experiments import (
    CompressionExperiment,
    DataCenterExperiment,
    DeltaEncodingExperiment,
    IdleExperiment,
    PerformanceExperiment,
    SynSeriesExperiment,
    build_world,
)
from repro.core.metrics import PerformanceMetrics, compute_performance_metrics
from repro.core.report import render_grouped_bars, render_series, render_table, to_csv
from repro.core.runner import SuiteResult
from repro.core.workloads import PAPER_WORKLOADS, WorkloadSpec, workload_by_name
from repro.netsim.scenario import BASELINE, BUILTIN_SCENARIOS, ScenarioSpec, get_scenario, register_scenario
from repro.services.registry import (
    SERVICE_NAMES,
    create_client,
    get_profile,
    get_spec,
    register_service,
    register_service_spec,
    register_services_from_file,
    temporary_services,
    unregister_service,
)
from repro.services.spec import ServiceSpec, load_service_specs
from repro.testbed.controller import Observation, TestbedController

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SuiteResult",
    "CapabilityProber",
    "CapabilityMatrix",
    "IdleExperiment",
    "DataCenterExperiment",
    "SynSeriesExperiment",
    "DeltaEncodingExperiment",
    "CompressionExperiment",
    "PerformanceExperiment",
    "PerformanceMetrics",
    "compute_performance_metrics",
    "build_world",
    "WorkloadSpec",
    "PAPER_WORKLOADS",
    "workload_by_name",
    "SERVICE_NAMES",
    "create_client",
    "get_profile",
    "register_service",
    "register_service_spec",
    "register_services_from_file",
    "unregister_service",
    "temporary_services",
    "get_spec",
    "ServiceSpec",
    "load_service_specs",
    "ScenarioSpec",
    "BASELINE",
    "BUILTIN_SCENARIOS",
    "get_scenario",
    "register_scenario",
    "TestbedController",
    "Observation",
    "render_table",
    "render_series",
    "render_grouped_bars",
    "to_csv",
]
