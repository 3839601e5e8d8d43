"""Parallel, cell-based campaign engine over hierarchical unit cells.

The paper's campaign (Table 1 plus Figs. 1-6 across five services) is a grid
of independent simulations.  This module makes that grid explicit — and
fine-grained:

* :class:`CampaignCell` — one (stage, service, *unit*) coordinate plus the
  seed and the knobs (repetitions, idle duration, resolver count) it needs
  to run.  A *unit* is a stage's natural sub-division: the performance
  stage schedules one cell per (service, workload), the delta stage one per
  modification pattern (append vs. random offset), the compression stage
  one per content class; stages without natural sub-units keep a single
  whole-service unit (:data:`WHOLE_SERVICE_UNIT`).
* :func:`run_cell` — executes one cell and times it (a module-level function
  so cells can be shipped to ``concurrent.futures`` worker processes);
* :class:`CampaignRunner` — plans the cell grid, fans it out over a process
  pool (``jobs`` workers) and merges the per-cell rows back into one
  :class:`~repro.core.runner.SuiteResult` per seed, so ``summary_text()``
  and every table/figure renderer see the same rows however the cells ran.
  Given a :class:`~repro.core.store.ResultStore`, the runner consults the
  store before dispatching: already-computed cells are loaded, fresh cells
  are persisted as they complete, and an interrupted or extended campaign
  resumes incrementally — cached and freshly-computed cells merge into a
  bit-identical suite.

Every output renders from rows: each cell keeps its
:attr:`CellResult.records` (the stage's report rows for that cell; one row
per run for the performance stage, whose report averages runs that
``--rep-cells`` spreads over several cells), and the store keeps exactly
those records.  A fresh cell also carries its experiment payload; a cell
served from the store carries only the records.

A campaign plan is ``grid × seeds``: :class:`CampaignRunner` accepts a
*seed list*, plans the same (stage, service, unit) grid once per seed
(ascending), and :meth:`CampaignRunner.run` groups the per-seed results
into a :class:`~repro.core.sweep.SweepResult` whose cross-seed statistics
live in :mod:`repro.core.sweep`.  A single-seed campaign is a sweep of one,
and plans exactly the cell list it always did.

Determinism: every cell carries the campaign seed, and each experiment
derives its random streams from ``(seed, service, ...)`` labels
(:func:`repro.randomness.derive_seed`), so a cell's output is a pure
function of its (stage, service, unit, seed, config) identity — independent
of scheduling, of which other cells run, and of whether they run in the
same process.  That purity is exactly what makes the identity usable as a
cache key.  Merging happens in plan order, never completion order.
``jobs=4`` therefore produces results bit-identical to ``jobs=1``, which in
turn are bit-identical to the standalone experiments' ``run()`` loops and
to a cache-served re-run for the same seed.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import DEFAULT_REPETITIONS, DEFAULT_RESOLVER_COUNT, SYN_SERIES_SERVICES
from repro.errors import ConfigurationError, UnknownServiceError
from repro.netsim.scenario import BASELINE, ScenarioSpec
from repro.obs.recorder import campaign_trace_document, cell_flight_record, harness_record
from repro.obs.tracer import NULL_TRACER, Tracer, activate
from repro.randomness import DEFAULT_SEED
from repro.services.registry import (
    SERVICE_NAMES,
    get_profile,
    install_registered_specs,
    registry_sync_payload,
)
from repro.units import format_population, minutes, parse_population, share_cpus, usable_cpus

if TYPE_CHECKING:
    from repro.core.store import ResultStore

__all__ = [
    "STAGES",
    "syn_series_services",
    "WHOLE_SERVICE_UNIT",
    "RESULTS_DOC_VERSION",
    "worker_service_payload",
    "init_pool_worker",
    "CampaignConfig",
    "CampaignCell",
    "CellFailure",
    "CellResult",
    "CampaignResult",
    "CampaignRunner",
    "run_cell",
    "stage_rows",
    "merge_cell_results",
    "results_document",
    "suite_stage_rows",
    "default_jobs",
]

#: Version of the deterministic results document (``--json``).  Unlike the
#: full campaign record, the document contains no wall clocks, worker counts
#: or cache provenance — only fields that are a pure function of
#: (plan, seed, config) — so a sharded multi-runner campaign merged from the
#: store serializes byte-identically to a sequential ``cloudbench all`` run.
RESULTS_DOC_VERSION = 1


def syn_series_services(services: Sequence[str]) -> List[str]:
    """The subset of ``services`` Fig. 3 (the SYN series) applies to.

    The paper's two culprits keep their fixed slots and ordering
    (plan-order compatibility with every earlier release); other services
    join — in the caller's order — when their declarative connection
    policy shows the same per-file pattern, so a spec-defined service with
    per-file connections gets its SYN series.  Falls back to all of
    ``services`` when none qualifies (the pre-existing behaviour for e.g.
    ``--services dropbox connections``).
    """
    wanted = [name for name in SYN_SERIES_SERVICES if name in services]
    for name in services:
        if name in SYN_SERIES_SERVICES:
            continue
        try:
            if get_profile(name).connections.new_storage_connection_per_file:
                wanted.append(name)
        except UnknownServiceError:
            continue
    return wanted or list(services)

#: Unit label of stages that schedule one cell per whole service.
WHOLE_SERVICE_UNIT = "-"


def default_jobs() -> int:
    """Default worker count: one per CPU this process may use."""
    return usable_cpus()


@dataclass(frozen=True)
class CampaignConfig:
    """The fidelity/runtime knobs shared by every cell of one campaign.

    The field defaults are the one defaults table of every entry point:
    ``cloudbench all``, its per-stage aliases, ``shard``/``merge`` and the
    ``cloudbench bench`` campaign macro-benchmark all read them.

    ``scenario`` is the network condition the whole campaign runs under
    (:class:`~repro.netsim.scenario.ScenarioSpec`): it travels inside every
    cell, is part of every cache key, and defaults to the identity
    :data:`~repro.netsim.scenario.BASELINE` — under which all outputs stay
    byte-identical to the pre-scenario era.  (Runtime-registered *services*,
    by contrast, are addressed by name; pools replicate them into workers
    via :func:`init_pool_worker`.)
    """

    repetitions: int = DEFAULT_REPETITIONS
    idle_duration: float = minutes(16)
    resolver_count: int = DEFAULT_RESOLVER_COUNT
    scenario: ScenarioSpec = field(default_factory=lambda: BASELINE)
    #: Population sizes the ``load`` stage plans one unit cell per (the
    #: labels are the canonical ``1k``/``10k``/``1M`` spellings).
    load_populations: Tuple[int, ...] = (1_000, 10_000)
    #: Plan one performance cell per repetition (``upload#r0`` …) instead of
    #: one per workload — finer shards toward the paper's 24 repetitions.
    rep_cells: bool = False


@dataclass(frozen=True)
class CampaignCell:
    """One independently schedulable unit: one stage × service × unit.

    ``unit`` is the stage's sub-division label (a workload name, a delta
    case, a content class) or :data:`WHOLE_SERVICE_UNIT` for stages that
    run whole-service cells.
    """

    stage: str
    service: str
    seed: int
    unit: str = WHOLE_SERVICE_UNIT
    config: CampaignConfig = field(default_factory=CampaignConfig)

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``"performance/dropbox/1x100kB@7"``.

        The seed is part of the key: a sweep plans the same (stage,
        service, unit) grid once per seed, and claims, shard accounting and
        merge diagnostics must tell those cells apart.
        """
        if self.unit == WHOLE_SERVICE_UNIT:
            return f"{self.stage}/{self.service}@{self.seed}"
        return f"{self.stage}/{self.service}/{self.unit}@{self.seed}"


# --------------------------------------------------------------------------- #
# Stage registry: unit planner + per-cell runner + row rules
# --------------------------------------------------------------------------- #
def _single_unit(config: CampaignConfig) -> Sequence[str]:
    return (WHOLE_SERVICE_UNIT,)


def _performance_units(config: CampaignConfig) -> Sequence[str]:
    from repro.core.workloads import PAPER_WORKLOADS

    names = tuple(workload.name for workload in PAPER_WORKLOADS)
    if config.rep_cells:
        # One cell per (workload, repetition): units stay workload-major so
        # merging in plan order reproduces run_pair's repetition loop, and
        # the merged rows stay bit-identical to the coarse plan.
        return tuple(
            f"{name}#r{repetition}" for name in names for repetition in range(config.repetitions)
        )
    return names


def _delta_units(config: CampaignConfig) -> Sequence[str]:
    from repro.core.experiments.delta import DELTA_CASES

    return tuple(DELTA_CASES)


def _compression_units(config: CampaignConfig) -> Sequence[str]:
    from repro.core.experiments.compression import CONTENT_CLASSES

    return tuple(kind.value for kind in CONTENT_CLASSES)


def _load_units(config: CampaignConfig) -> Sequence[str]:
    # Ascending numeric order (1k < 10k < 100k < 1M) — the plan, and
    # therefore every table, CSV and JSON document, must never fall back
    # to lexical ordering of the labels.
    return tuple(
        format_population(population)
        for population in sorted(dict.fromkeys(config.load_populations))
    )


@dataclass(frozen=True)
class _StageSpec:
    """Everything the engine needs to know about one campaign stage.

    ``run`` computes one cell's payload and ``records`` turns it into the
    rows the cell keeps (and the store persists).  ``report`` turns a
    stage's records, concatenated in plan order, into its report rows —
    one cell's or the whole merged stage's.  ``units`` is the stage's
    planner: the sub-unit labels one service splits into (most stages have
    a single whole-service unit).  Adding a stage means adding exactly one
    spec (plus its summary title).  Each function imports the modules its
    stage needs when it is called, so a process imports only the
    experiments of the stages it plans or runs.
    """

    name: str
    run: Callable[[CampaignCell], Any]
    records: Callable[[CampaignCell, Any], List[dict]]
    report: Callable[[List[dict]], List[dict]] = list
    units: Callable[[CampaignConfig], Sequence[str]] = _single_unit


def _run_capabilities(cell: CampaignCell) -> Any:
    from repro.core.capabilities import CapabilityProber

    return CapabilityProber(seed=cell.seed, scenario=cell.config.scenario).probe_service(cell.service)


def _run_idle(cell: CampaignCell) -> Any:
    from repro.core.experiments.idle import IdleExperiment

    experiment = IdleExperiment(
        [cell.service], duration=cell.config.idle_duration, seed=cell.seed, scenario=cell.config.scenario
    )
    return experiment.run_service(cell.service)


def _run_datacenters(cell: CampaignCell) -> Any:
    from repro.core.experiments.datacenters import DataCenterExperiment

    # Discovery measures the simulated world's geography (DNS, whois, RTT
    # probes from global vantage points), not the client's access path —
    # the scenario deliberately does not warp it.
    experiment = DataCenterExperiment(
        [cell.service],
        resolver_count=cell.config.resolver_count,
        seed=cell.seed,
    )
    return experiment.run_service(cell.service)


def _run_syn_series(cell: CampaignCell) -> Any:
    from repro.core.experiments.synseries import SynSeriesExperiment

    experiment = SynSeriesExperiment([cell.service], seed=cell.seed, scenario=cell.config.scenario)
    return experiment.run_service(cell.service)


def _run_delta(cell: CampaignCell) -> Any:
    from repro.core.experiments.delta import DeltaEncodingExperiment

    experiment = DeltaEncodingExperiment([cell.service], seed=cell.seed, scenario=cell.config.scenario)
    return experiment.run_case(cell.service, cell.unit)


def _run_compression(cell: CampaignCell) -> Any:
    from repro.core.experiments.compression import CompressionExperiment
    from repro.filegen.model import FileKind

    experiment = CompressionExperiment([cell.service], seed=cell.seed, scenario=cell.config.scenario)
    return experiment.run_kind(cell.service, FileKind(cell.unit))


def _run_performance(cell: CampaignCell) -> Any:
    from repro.core.experiments.performance import PerformanceExperiment
    from repro.core.workloads import workload_by_name

    experiment = PerformanceExperiment(
        [cell.service],
        repetitions=cell.config.repetitions,
        seed=cell.seed,
        scenario=cell.config.scenario,
    )
    name, marker, repetition = cell.unit.rpartition("#r")
    if marker and repetition.isdigit():
        return [experiment.run_single(cell.service, workload_by_name(name), int(repetition))]
    return experiment.run_pair(cell.service, workload_by_name(cell.unit))


def _run_load(cell: CampaignCell) -> Any:
    from repro.load.population import LoadParameters, run_load_cell

    params = LoadParameters(population=parse_population(cell.unit))
    return run_load_cell(cell.service, params, seed=cell.seed, scenario=cell.config.scenario)


def _capability_records(cell: CampaignCell, payload: Any) -> List[dict]:
    from repro.core.capabilities import CapabilityMatrix

    matrix = CapabilityMatrix()
    matrix.add_service(payload)
    return matrix.rows()


def _capability_rows(records: List[dict]) -> List[dict]:
    """Table 1 lists one row per service in registry order, whatever the plan order."""
    by_service = {row["service"]: row for row in records}
    order = [name for name in SERVICE_NAMES if name in by_service]
    return [by_service[name] for name in order + sorted(set(by_service) - set(order))]


def _per_service_rows(records: List[dict]) -> List[dict]:
    """One row per service, in first-seen order (a service planned twice reports once)."""
    return list({row["service"]: row for row in records}.values())


def _idle_records(cell: CampaignCell, payload: Any) -> List[dict]:
    from repro.core.experiments.idle import IdleResult

    return IdleResult(payload.duration, {cell.service: payload}).rows()


def _datacenter_records(cell: CampaignCell, payload: Any) -> List[dict]:
    from repro.core.experiments.datacenters import DataCenterResult

    return DataCenterResult({cell.service: payload}).rows()


def _syn_series_records(cell: CampaignCell, payload: Any) -> List[dict]:
    from repro.core.experiments.synseries import SynSeriesResult

    return SynSeriesResult({cell.service: payload}).rows()


def _delta_records(cell: CampaignCell, payload: Any) -> List[dict]:
    from repro.core.experiments.delta import DeltaResult

    return DeltaResult(list(payload)).rows()


def _compression_records(cell: CampaignCell, payload: Any) -> List[dict]:
    from repro.core.experiments.compression import CompressionExperimentResult

    return CompressionExperimentResult(list(payload)).rows()


def _performance_records(cell: CampaignCell, payload: Any) -> List[dict]:
    return [dataclasses.asdict(run) for run in payload]


def _performance_rows(records: List[dict]) -> List[dict]:
    """Fig. 6 rows average the runs of each (service, workload), wherever they ran."""
    from repro.core.experiments.performance import PerformanceResult
    from repro.core.metrics import PerformanceMetrics

    return PerformanceResult([PerformanceMetrics(**record) for record in records]).rows()


_STAGE_SPECS: Dict[str, _StageSpec] = {
    spec.name: spec
    for spec in (
        _StageSpec("capabilities", _run_capabilities, _capability_records, _capability_rows),
        _StageSpec("idle", _run_idle, _idle_records, _per_service_rows),
        _StageSpec("datacenters", _run_datacenters, _datacenter_records, _per_service_rows),
        _StageSpec("syn_series", _run_syn_series, _syn_series_records, _per_service_rows),
        _StageSpec("delta", _run_delta, _delta_records, units=_delta_units),
        _StageSpec("compression", _run_compression, _compression_records, units=_compression_units),
        _StageSpec("performance", _run_performance, _performance_records, _performance_rows, _performance_units),
        _StageSpec("load", _run_load, lambda cell, payload: [payload.row()], units=_load_units),
    )
}

#: Every campaign stage, in the paper's presentation order (Table 1, Figs. 1-6).
STAGES = tuple(_STAGE_SPECS)


def _spec(stage: str) -> _StageSpec:
    try:
        return _STAGE_SPECS[stage]
    except KeyError:
        raise ConfigurationError(
            f"unknown campaign stage {stage!r}; valid stages: {', '.join(STAGES)}"
        ) from None


def stage_rows(stage: str, records: List[dict]) -> List[dict]:
    """A stage's report rows from its cells' records, concatenated in plan order."""
    return _spec(stage).report(records)


# --------------------------------------------------------------------------- #
# Cell execution and results
# --------------------------------------------------------------------------- #
#: Traceback lines kept in a :class:`CellFailure` summary.
_TRACEBACK_TAIL_LINES = 6


@dataclass(frozen=True)
class CellFailure:
    """Why one cell failed, with enough context to debug it from the report.

    Pool workers cannot usefully re-raise: the parent sees a bare exception
    with no idea *which* cell died.  Instead a failing cell completes with
    this record attached — the identity coordinates, the exception, and the
    tail of its traceback — which flows into the timing table, the
    ``--timings-json`` record and the flight recorder.  Picklable by
    construction (strings only), so it survives the process-pool boundary.
    """

    stage: str
    service: str
    unit: str
    seed: int
    error_type: str
    message: str
    traceback_tail: str

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "service": self.service,
            "unit": self.unit,
            "seed": self.seed,
            "error_type": self.error_type,
            "message": self.message,
            "traceback_tail": self.traceback_tail,
        }

    def summary(self) -> str:
        return f"{self.stage}/{self.service}/{self.unit}@{self.seed}: {self.error_type}: {self.message}"


def _failure_for(cell: CampaignCell, error: BaseException) -> CellFailure:
    lines = traceback.format_exception(type(error), error, error.__traceback__)
    tail = "".join(lines)[-4096:].splitlines()[-_TRACEBACK_TAIL_LINES:]
    return CellFailure(
        stage=cell.stage,
        service=cell.service,
        unit=cell.unit,
        seed=cell.seed,
        error_type=type(error).__name__,
        message=str(error),
        traceback_tail="\n".join(tail),
    )


@dataclass
class CellResult:
    """One cell's rows plus its wall-clock cost and cache provenance.

    ``records`` are the rows every output renders from and the store
    keeps: the cell's report rows, or for the performance stage one
    ``PerformanceMetrics`` row per run.  ``payload`` is the experiment's
    own result object, present only when the cell was computed in this
    process tree.  ``cached`` is ``True`` when the cell was served from a
    :class:`~repro.core.store.ResultStore`; ``wall_seconds`` then still
    reports the *original* compute time, and ``runner`` the id of the
    shard worker that computed it (``None`` when untagged).  ``failure``
    is set (and ``payload`` is ``None``, ``records`` empty) when the cell's
    experiment raised; ``trace`` carries the cell's flight-record document
    when the campaign ran with tracing on.
    """

    cell: CampaignCell
    payload: Any
    wall_seconds: float
    cached: bool = False
    failure: Optional[CellFailure] = None
    trace: Optional[dict] = None
    runner: Optional[str] = None
    records: List[dict] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def rows(self) -> List[dict]:
        """This cell's report rows (empty on failure)."""
        if self.failure is not None:
            return []
        return stage_rows(self.cell.stage, self.records)


def run_cell(cell: CampaignCell, trace: bool = False) -> CellResult:
    """Execute one campaign cell on a fresh testbed and time it.

    An unknown stage still raises (a malformed *plan* is a caller bug); an
    exception from the experiment itself becomes a :class:`CellFailure` on
    the returned result, so a pool worker's death carries its cell context
    back to the parent instead of a bare re-raise.  With ``trace`` on, the
    cell runs under a fresh recording tracer and the result carries its
    flight-record document.
    """
    spec = _spec(cell.stage)
    tracer = Tracer(label=cell.key) if trace else NULL_TRACER
    started = time.perf_counter()
    payload = None
    records: List[dict] = []
    failure: Optional[CellFailure] = None
    with activate(tracer):
        try:
            payload = spec.run(cell)
            records = spec.records(cell, payload)
        except Exception as error:
            payload = None
            failure = _failure_for(cell, error)
    wall_seconds = time.perf_counter() - started
    record = None
    if trace:
        tracer.record_wall("cell.run", 0.0, tracer.wall_now(), key=cell.key)
        record = cell_flight_record(tracer, cell, failure=failure.to_dict() if failure is not None else None)
    return CellResult(
        cell=cell, payload=payload, wall_seconds=wall_seconds, failure=failure, trace=record, records=records
    )


def worker_service_payload(cells: Sequence[CampaignCell]) -> List[dict]:
    """The registry state a worker pool needs to run ``cells``.

    Pass the result as the first of ``initargs`` with
    :func:`init_pool_worker` as the pool ``initializer``: services
    registered at runtime (``--services-file``, ablation variants) then
    exist in every worker even under the ``spawn``/``forkserver`` start
    methods, where workers do not inherit the parent registry.  Under
    ``fork`` the install is a content-matched no-op.
    """
    return registry_sync_payload(cell.service for cell in cells)


def init_pool_worker(payload: Sequence[dict], workers: int) -> None:
    """Process-pool initializer: install the parent's service registrations.

    It also records that the pool's ``workers`` processes share the CPUs
    (:func:`~repro.units.share_cpus`), so the threads a cell starts do not
    multiply with ``--jobs``.
    """
    install_registered_specs(payload)
    share_cpus(workers)


@dataclass
class CampaignResult:
    """One seed's campaign: merged suite + per-cell accounting.

    A :class:`~repro.core.sweep.SweepResult` holds one per sweep seed.
    """

    suite: "SuiteResult"
    cells: List[CellResult]
    seed: int
    jobs: int
    wall_seconds: float

    def timing_rows(self) -> List[dict]:
        """Per-cell wall-clock rows (plan order), for the timing table."""
        return [
            {
                "stage": result.cell.stage,
                "service": result.cell.service,
                "unit": result.cell.unit,
                "wall_s": round(result.wall_seconds, 3),
                "cached": "yes" if result.cached else "no",
                "error": result.failure.error_type if result.failure is not None else "-",
            }
            for result in self.cells
        ]

    def failures(self) -> List[CellFailure]:
        """Every failed cell's context record, plan order."""
        return [result.failure for result in self.cells if result.failure is not None]

    def cpu_seconds(self) -> float:
        """Sum of per-cell wall clocks: the sequential-equivalent runtime."""
        return sum(result.wall_seconds for result in self.cells)

    def cache_hits(self) -> int:
        """Number of cells served from the result store."""
        return sum(1 for result in self.cells if result.cached)

    def cache_misses(self) -> int:
        """Number of cells actually computed this run."""
        return sum(1 for result in self.cells if not result.cached)

    def results_json_dict(self) -> dict:
        """The deterministic results document for this campaign.

        See :func:`results_document`; this is what ``--json`` writes.
        """
        return results_document(self.cells, seed=self.seed)

    def to_json_dict(self) -> dict:
        """Machine-readable campaign *execution* record: rows plus timings.

        Unlike :meth:`results_json_dict` this includes run-specific fields
        (wall clocks, worker count, cache hits), so two executions of the
        same campaign generally serialize differently.
        """
        return {
            "seed": self.seed,
            "jobs": self.jobs,
            "stages": sorted({result.cell.stage for result in self.cells}, key=STAGES.index),
            "services": list(dict.fromkeys(result.cell.service for result in self.cells)),
            "wall_seconds": round(self.wall_seconds, 3),
            "cell_cpu_seconds": round(self.cpu_seconds(), 3),
            "cache": {"hits": self.cache_hits(), "misses": self.cache_misses()},
            "cells": [
                {
                    "stage": result.cell.stage,
                    "service": result.cell.service,
                    "unit": result.cell.unit,
                    "cached": result.cached,
                    "wall_seconds": round(result.wall_seconds, 3),
                    "error": result.failure.to_dict() if result.failure is not None else None,
                    "rows": result.rows(),
                }
                for result in self.cells
            ],
        }


# --------------------------------------------------------------------------- #
# Planning, fan-out and merging
# --------------------------------------------------------------------------- #
class CampaignRunner:
    """Plan the (stage, service, unit) grid, fan it out and merge the results."""

    def __init__(
        self,
        services: Optional[Sequence[str]] = None,
        stages: Optional[Sequence[str]] = None,
        *,
        seed: int = DEFAULT_SEED,
        seeds: Optional[Sequence[int]] = None,
        jobs: Optional[int] = None,
        config: Optional[CampaignConfig] = None,
        store: Optional[ResultStore] = None,
        trace: bool = False,
    ) -> None:
        # Deduplicate while keeping the order the services were named in.
        self.services = list(dict.fromkeys(services)) if services is not None else list(SERVICE_NAMES)
        wanted = list(stages) if stages is not None else list(STAGES)
        unknown = [stage for stage in wanted if stage not in STAGES]
        if unknown:
            raise ConfigurationError(
                f"unknown stage(s): {', '.join(sorted(unknown))}; valid stages: {', '.join(STAGES)}"
            )
        # Deduplicate while keeping the canonical stage order.
        self.stages = [stage for stage in STAGES if stage in wanted]
        self.jobs = max(1, jobs if jobs is not None else default_jobs())
        # Every campaign is a sweep: the same grid is planned once per seed
        # (``seed`` alone is a sweep of one).  The list is deduplicated and
        # sorted so a sweep's plan — and therefore every downstream
        # artifact — is independent of the order the seeds were spelled in.
        if seeds is not None:
            self.seeds = sorted(dict.fromkeys(int(value) for value in seeds))
            if not self.seeds:
                raise ConfigurationError("a seed sweep needs at least one seed")
        else:
            self.seeds = [seed]
        self.config = config if config is not None else CampaignConfig()
        self.store = store
        # Tracing: each cell gets its own recording tracer inside run_cell
        # (possibly in a worker process); this harness tracer collects the
        # parent-side wall spans and store/claim metrics.
        self.trace = trace
        self.tracer = Tracer(label="harness") if trace else NULL_TRACER

    def cells(self) -> List[CampaignCell]:
        """The sweep plan: one cell per (stage, service, unit, seed), seed-major.

        The plan is the concatenation of one per-seed grid per sweep seed
        (ascending seed order), each grid stage-major exactly as before —
        so a single-seed campaign plans the identical cell list it always
        did, and a sweep's per-seed slices each reproduce the single-seed
        plan.  Every cell carries its sweep seed undiluted; the per-cell
        random streams are nevertheless independent because each experiment
        derives them from ``(seed, service, ...)`` labels.  A single-stage,
        single-seed campaign therefore reproduces the standalone experiment
        bit-for-bit.  Within one (stage, service), units appear in the
        stage's canonical order, so merging in plan order reproduces the
        sequential run order exactly.
        """
        plan: List[CampaignCell] = []
        for seed in self.seeds:
            for stage in self.stages:
                spec = _spec(stage)
                units = spec.units(self.config)
                for service in self._stage_services(stage):
                    for unit in units:
                        plan.append(
                            CampaignCell(stage=stage, service=service, seed=seed, unit=unit, config=self.config)
                        )
        return plan

    def _stage_services(self, stage: str) -> List[str]:
        if stage == "syn_series":
            return syn_series_services(self.services)
        return list(self.services)

    def run(self) -> "SweepResult":
        """Execute the whole plan (in parallel for ``jobs > 1``), per seed.

        With a result store attached, cells already in the store are loaded
        instead of dispatched, and freshly computed cells are persisted *as
        they complete* — so an interrupted campaign loses at most the cells
        still in flight and ``--resume`` picks up from the survivors.  The
        completed cells are grouped into one :class:`CampaignResult` per
        seed; a single-seed campaign is a sweep of one.
        """
        started = time.perf_counter()
        return self.sweep(self.run_cells(self.cells()), started=started)

    def sweep(self, results: Sequence[CellResult], *, started: float) -> "SweepResult":
        """Group plan-ordered ``results`` into this campaign's sweep.

        ``started`` is the :func:`time.perf_counter` reading the sweep's
        wall clock runs from.  The distributed merger merges the cells it
        reads back from the store through here as well.
        """
        from repro.core.sweep import sweep_from_results  # circular-free: sweep builds on this module

        sweep = sweep_from_results(
            results,
            seeds=self.seeds,
            jobs=self.jobs,
            wall_seconds=time.perf_counter() - started,
        )
        sweep.trace = self.trace_document(results)
        return sweep

    def run_cells(self, cells: Sequence[CampaignCell]) -> List[CellResult]:
        """Run the given cells (store-aware, possibly in parallel), in order.

        No :class:`SuiteResult` merge: the cells may span several sweep
        seeds, and :meth:`run` groups them per seed.
        """
        plan = list(cells)
        results: List[Optional[CellResult]] = [None] * len(plan)
        pending: List[int] = []
        with activate(self.tracer):
            with self.tracer.wall_span("campaign.store_prepass", cells=len(plan)):
                for index, cell in enumerate(plan):
                    hit = self.store.load(cell) if self.store is not None else None
                    if hit is not None:
                        results[index] = hit
                    else:
                        pending.append(index)
            with self.tracer.wall_span("campaign.dispatch", pending=len(pending), jobs=self.jobs):
                # The extra argument only appears when tracing: the common
                # untraced call keeps run_cell's one-argument shape (stable
                # for test doubles and third-party wrappers).
                cell_args = (True,) if self.trace else ()
                if self.jobs == 1 or len(pending) <= 1:
                    for index in pending:
                        results[index] = self._completed(run_cell(plan[index], *cell_args))
                else:
                    workers = min(self.jobs, len(pending))
                    with ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=init_pool_worker,
                        initargs=(worker_service_payload([plan[index] for index in pending]), workers),
                    ) as pool:
                        futures = {pool.submit(run_cell, plan[index], *cell_args): index for index in pending}
                        # Persist in completion order (resume granularity); results
                        # land by plan index, so merging stays in plan order.
                        for future in as_completed(futures):
                            index = futures[future]
                            try:
                                result = future.result()
                            except BrokenProcessPool as error:
                                # A dead worker breaks the pool and fails every
                                # unfinished future; the finished ones are saved,
                                # and a --resume recomputes these.
                                failure = _failure_for(plan[index], error)
                                result = CellResult(cell=plan[index], payload=None, wall_seconds=0.0, failure=failure)
                            results[index] = self._completed(result)
        return [result for result in results if result is not None]

    def _completed(self, result: CellResult) -> CellResult:
        # Failed cells are never persisted: the store caches *pure rows*,
        # and a failure is run-specific, not a function of the cell identity.
        if self.store is not None and result.failure is None:
            self.store.save(result)
        return result

    def trace_document(self, results: Sequence[CellResult]) -> Optional[dict]:
        """The campaign trace document for ``results``, or ``None`` untraced."""
        if not self.trace:
            return None
        records = [result.trace for result in results if result.trace is not None]
        return campaign_trace_document(records, harness=harness_record(self.tracer))


def merge_cell_results(results: Sequence[CellResult]) -> "SuiteResult":
    """Concatenate per-cell records, per stage, into one ``SuiteResult``.

    ``results`` must be in plan order (stage-major, services in campaign
    order, units in stage order); the merged stages then list services and
    rows exactly as the sequential experiments do — regardless of whether
    each cell was computed this run or loaded from the store.  A stage
    appears once at least one of its cells succeeded.
    """
    from repro.core.runner import SuiteResult  # local import: cell execution never needs it

    records: Dict[str, List[dict]] = {}
    for result in results:
        if result.failure is None:
            records.setdefault(result.cell.stage, []).extend(result.records)
    return SuiteResult(records)


def results_document(results: Sequence[CellResult], *, seed: int) -> dict:
    """Deterministic, machine-readable results for a sequence of cell results.

    The document is a pure function of the cell identities and rows —
    no wall clocks, worker counts or cache provenance — so any two
    executions of the same (plan, seed, config), sequential, parallel or
    sharded across machines and merged from the store, produce the same
    document byte for byte.  ``results`` must be in plan order; failed
    cells (run-specific by nature, never cached) are excluded.
    """
    results = [result for result in results if result.failure is None]
    return {
        "schema": RESULTS_DOC_VERSION,
        "seed": seed,
        "stages": sorted({result.cell.stage for result in results}, key=STAGES.index),
        "services": list(dict.fromkeys(result.cell.service for result in results)),
        "cells": [
            {
                "stage": result.cell.stage,
                "service": result.cell.service,
                "unit": result.cell.unit,
                "rows": result.rows(),
            }
            for result in results
        ],
    }


def suite_stage_rows(suite: "SuiteResult") -> Dict[str, List[dict]]:
    """Flat report rows for every completed stage, keyed by stage name."""
    return {stage: suite.rows(stage) for stage in STAGES if stage in suite.records}
