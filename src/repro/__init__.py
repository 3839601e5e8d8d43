"""repro — a benchmarking framework for personal cloud storage services.

This library reproduces *"Benchmarking Personal Cloud Storage"* (Drago,
Bocchi, Mellia, Slatman, Pras — ACM IMC 2013): an active-measurement
methodology that discovers the architecture of personal cloud storage
services, checks which client capabilities they implement and benchmarks the
performance consequences of those design choices.

Because live service accounts and real packet capture are not available,
the five services studied by the paper are provided as faithful simulation
models — declarative service specs interpreted by one generic client
engine (:mod:`repro.services`); the benchmarking framework itself only ever
looks at the traffic those models emit, exactly as the paper's testbed
does.

Quick start::

    from repro import PerformanceExperiment

    result = PerformanceExperiment(services=["dropbox", "googledrive"], repetitions=3).run()
    for row in result.rows():
        print(row)

See ``examples/`` for complete, runnable scenarios.  ``cloudbench all``
regenerates every table and figure of the paper, and the test suite
(``tests/``) asserts their qualitative findings, the §4–§6 design-choice
ablations included.
"""

import importlib

__version__ = "1.0.0"

#: The documented Python API: each name -> the module that defines it.  A
#: name is imported on first access (``from repro import X``), so ``import
#: repro`` alone loads no subpackage and each process loads only the layers
#: it uses.
_EXPORTS = {
    "SuiteResult": "repro.core.runner",
    "CapabilityProber": "repro.core.capabilities",
    "CapabilityMatrix": "repro.core.capabilities",
    "IdleExperiment": "repro.core.experiments.idle",
    "DataCenterExperiment": "repro.core.experiments.datacenters",
    "SynSeriesExperiment": "repro.core.experiments.synseries",
    "DeltaEncodingExperiment": "repro.core.experiments.delta",
    "CompressionExperiment": "repro.core.experiments.compression",
    "PerformanceExperiment": "repro.core.experiments.performance",
    "PerformanceMetrics": "repro.core.metrics",
    "compute_performance_metrics": "repro.core.metrics",
    "build_world": "repro.core.experiments.datacenters",
    "WorkloadSpec": "repro.core.workloads",
    "PAPER_WORKLOADS": "repro.core.workloads",
    "workload_by_name": "repro.core.workloads",
    "SERVICE_NAMES": "repro.services.registry",
    "create_client": "repro.services.registry",
    "get_profile": "repro.services.registry",
    "register_service_spec": "repro.services.registry",
    "register_services_from_file": "repro.services.registry",
    "unregister_service": "repro.services.registry",
    "temporary_services": "repro.services.registry",
    "get_spec": "repro.services.registry",
    "ServiceSpec": "repro.services.spec",
    "load_service_specs": "repro.services.spec",
    "ScenarioSpec": "repro.netsim.scenario",
    "BASELINE": "repro.netsim.scenario",
    "BUILTIN_SCENARIOS": "repro.netsim.scenario",
    "get_scenario": "repro.netsim.scenario",
    "register_scenario": "repro.netsim.scenario",
    "TestbedController": "repro.testbed.controller",
    "Observation": "repro.testbed.controller",
    "render_table": "repro.core.report",
    "render_series": "repro.core.report",
    "render_grouped_bars": "repro.core.report",
    "to_csv": "repro.core.report",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
