"""Tests for the parallel cell-based campaign engine."""

from __future__ import annotations

import inspect
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import units
from repro.core import DEFAULT_PLANETLAB_COUNT
from repro.core.campaign import (
    STAGES,
    WHOLE_SERVICE_UNIT,
    CampaignCell,
    CampaignConfig,
    CampaignRunner,
    default_jobs,
    init_pool_worker,
    merge_cell_results,
    run_cell,
    suite_stage_rows,
)
from repro.core.experiments.datacenters import DataCenterExperiment, build_world
from repro.core.experiments.idle import IdleExperiment
from repro.core.experiments.performance import PerformanceExperiment
from repro.core.workloads import PAPER_WORKLOADS
from repro.errors import ConfigurationError
from repro.services.registry import SERVICE_NAMES

#: A cheap but representative campaign: two services, three stages.
SERVICES = ["dropbox", "googledrive"]
STAGE_SUBSET = ["idle", "syn_series", "performance"]
CONFIG = CampaignConfig(repetitions=1, idle_duration=60.0, resolver_count=50)

#: Unit-cell arithmetic for the subset: idle 2x1, syn_series 1x1 (only
#: googledrive is a Fig. 3 service), performance 2 services x 4 workloads.
SUBSET_CELLS = 2 + 1 + 2 * len(PAPER_WORKLOADS)


class TestCampaignPlan:
    def test_cells_are_stage_major_and_deterministic(self):
        runner = CampaignRunner(SERVICES, STAGE_SUBSET, config=CONFIG)
        cells = runner.cells()
        assert [cell.stage for cell in cells] == ["idle"] * 2 + ["syn_series"] + ["performance"] * 8
        assert cells == runner.cells()  # planning is a pure function

    def test_performance_splits_into_per_workload_unit_cells(self):
        cells = CampaignRunner(["dropbox"], ["performance"], config=CONFIG).cells()
        assert [cell.unit for cell in cells] == [workload.name for workload in PAPER_WORKLOADS]
        seed = cells[0].seed
        assert [cell.key for cell in cells] == [f"performance/dropbox/{w.name}@{seed}" for w in PAPER_WORKLOADS]

    def test_delta_and_compression_split_into_unit_cells(self):
        delta = CampaignRunner(["dropbox"], ["delta"], config=CONFIG).cells()
        assert [cell.unit for cell in delta] == ["append", "random"]
        compression = CampaignRunner(["dropbox"], ["compression"], config=CONFIG).cells()
        assert [cell.unit for cell in compression] == ["text", "binary", "fake_jpeg"]

    def test_stages_without_sub_units_plan_whole_service_cells(self):
        cells = CampaignRunner(SERVICES, ["idle", "capabilities"], config=CONFIG).cells()
        assert {cell.unit for cell in cells} == {WHOLE_SERVICE_UNIT}
        assert cells[0].key == f"capabilities/dropbox@{cells[0].seed}"  # no unit suffix

    def test_default_campaign_schedules_more_cells_than_flat_grid(self):
        # Acceptance: the unit-cell plan is strictly finer than the old
        # 5-service x 7-stage grid (performance alone contributes 5 x 4).
        cells = CampaignRunner(config=CONFIG).cells()
        flat_grid = len(SERVICE_NAMES) * len(STAGES)
        assert len(cells) > flat_grid
        performance = [cell for cell in cells if cell.stage == "performance"]
        assert len(performance) == len(SERVICE_NAMES) * len(PAPER_WORKLOADS)

    def test_syn_series_cells_restricted_to_paper_services(self):
        cells = CampaignRunner(["dropbox", "wuala"], ["syn_series"], config=CONFIG).cells()
        # Neither plotted service selected: fall back to the requested ones.
        assert [cell.service for cell in cells] == ["dropbox", "wuala"]
        cells = CampaignRunner(["dropbox", "clouddrive"], ["syn_series"], config=CONFIG).cells()
        assert [cell.service for cell in cells] == ["clouddrive"]

    def test_cells_carry_the_campaign_seed(self):
        # Cells keep the campaign seed undiluted; independence of the
        # per-cell random streams comes from the experiments deriving
        # (seed, service, ...)-keyed streams internally.
        cells = CampaignRunner(SERVICES, ["idle", "performance"], seed=123, config=CONFIG).cells()
        assert {cell.seed for cell in cells} == {123}

    def test_campaign_matches_standalone_experiment_for_same_seed(self):
        # Regression: cells used to re-derive their seeds, so the delta/
        # compression/connections sections of `cloudbench all --seed N`
        # disagreed with the standalone subcommands at the same seed.
        from repro.core.experiments.synseries import SynSeriesExperiment

        campaign = CampaignRunner(["googledrive"], ["syn_series"], seed=99, jobs=1, config=CONFIG).run().campaigns[0]
        standalone = SynSeriesExperiment(["googledrive"], seed=99).run()
        assert campaign.suite.rows("syn_series") == standalone.rows()

    def test_unit_cells_merge_identical_to_standalone_runs(self):
        # The per-unit split (per-workload and per-content-class cells)
        # must fold back into exactly what the sequential whole-service
        # experiments produce for the same seed.  (The delta split is
        # covered at the experiment level with reduced sizes in
        # test_core_experiments.py — the full-size sweep is too slow here.)
        from repro.core.experiments.compression import CompressionExperiment
        from repro.core.experiments.performance import PerformanceExperiment

        runner = CampaignRunner(["dropbox"], ["compression", "performance"], seed=7, jobs=1, config=CONFIG)
        campaign = runner.run().campaigns[0]
        assert campaign.suite.rows("compression") == CompressionExperiment(["dropbox"], seed=7).run().rows()
        standalone_perf = PerformanceExperiment(["dropbox"], repetitions=1, seed=7).run()
        assert campaign.suite.rows("performance") == standalone_perf.rows()

    @pytest.mark.parametrize("stage", ["delta", "compression", "performance"])
    def test_whole_service_unit_is_a_failed_cell_of_sub_unit_stages(self, stage):
        # These stages plan one cell per sub-unit, never a whole-service
        # cell; a hand-built one fails as a cell instead of raising.
        cell = CampaignCell(stage=stage, service="dropbox", seed=7, config=CONFIG)
        assert cell.unit == WHOLE_SERVICE_UNIT
        assert all(planned.unit != WHOLE_SERVICE_UNIT for planned in CampaignRunner(["dropbox"], [stage]).cells())
        result = run_cell(cell)
        assert result.failure is not None and result.records == []
        assert result.failure.unit == WHOLE_SERVICE_UNIT

    def test_stage_order_is_canonical_regardless_of_request_order(self):
        runner = CampaignRunner(SERVICES, ["performance", "idle"], config=CONFIG)
        assert runner.stages == ["idle", "performance"]

    def test_unknown_stage_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="preformance"):
            CampaignRunner(SERVICES, ["preformance"], config=CONFIG)
        with pytest.raises(ConfigurationError, match="valid stages"):
            CampaignRunner(SERVICES, ["idle", "bogus"], config=CONFIG)

    def test_default_jobs_is_positive(self):
        assert default_jobs() >= 1

    def test_default_jobs_counts_the_cpus_this_process_may_use(self, monkeypatch, pin_cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pin_cpus(1)
        assert default_jobs() == 1
        pin_cpus(3)
        assert default_jobs() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert default_jobs() == 2

    def test_a_pool_worker_counts_its_part_of_the_cpus(self, monkeypatch, pin_cpus):
        monkeypatch.setattr(units, "_cpu_sharers", 1)
        pin_cpus(8)
        assert units.cpu_share() == 8
        init_pool_worker([], 4)
        assert units.cpu_share() == 2
        init_pool_worker([], 16)
        assert units.cpu_share() == 1
        # A forked worker inherits the pinned affinity; its initializer sets its share.
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(2, mp_context=fork, initializer=init_pool_worker, initargs=([], 2)) as pool:
            assert pool.submit(units.cpu_share).result() == 4

    def test_experiment_defaults_match_campaign_config(self):
        # One defaults table: an experiment built without arguments runs
        # what `cloudbench all` runs by default.
        config = CampaignConfig()

        def default(callable_, name):
            return inspect.signature(callable_).parameters[name].default

        assert default(PerformanceExperiment, "repetitions") == config.repetitions
        assert default(IdleExperiment, "duration") == config.idle_duration
        for callable_ in (DataCenterExperiment, build_world):
            assert default(callable_, "resolver_count") == config.resolver_count
        assert default(build_world, "planetlab_count") == DEFAULT_PLANETLAB_COUNT


class TestCampaignExecution:
    @pytest.fixture(scope="class")
    def sequential(self):
        return CampaignRunner(SERVICES, STAGE_SUBSET, jobs=1, config=CONFIG).run().campaigns[0]

    def test_run_cell_times_and_returns_payload(self):
        cell = CampaignRunner(SERVICES, ["idle"], config=CONFIG).cells()[0]
        result = run_cell(cell)
        assert result.cell == cell
        assert result.wall_seconds > 0
        assert result.payload.service == cell.service
        assert result.rows() and result.rows()[0]["service"] == cell.service

    def test_run_cell_rejects_unknown_stage(self):
        with pytest.raises(ConfigurationError):
            run_cell(CampaignCell(stage="bogus", service="dropbox", seed=1))

    def test_merge_preserves_service_order(self, sequential):
        suite = sequential.suite
        assert [row["service"] for row in suite.rows("idle")] == SERVICES
        assert "syn_series" in suite.records and "performance" in suite.records
        assert [run["service"] for run in suite.records["performance"]] == ["dropbox"] * 4 + ["googledrive"] * 4

    def test_parallel_equals_sequential_bit_identical(self, sequential):
        parallel = CampaignRunner(SERVICES, STAGE_SUBSET, jobs=4, config=CONFIG).run().campaigns[0]
        assert parallel.jobs == 4
        assert suite_stage_rows(parallel.suite) == suite_stage_rows(sequential.suite)
        assert parallel.suite.summary_text() == sequential.suite.summary_text()

    def test_rerun_with_same_seed_is_reproducible(self, sequential):
        again = CampaignRunner(SERVICES, STAGE_SUBSET, jobs=1, config=CONFIG).run().campaigns[0]
        assert suite_stage_rows(again.suite) == suite_stage_rows(sequential.suite)

    def test_timing_rows_cover_every_cell(self, sequential):
        rows = sequential.timing_rows()
        assert len(rows) == len(sequential.cells) == SUBSET_CELLS
        assert all(row["wall_s"] >= 0 for row in rows)
        # Unit-level rows: the performance stage reports one row per workload.
        performance_units = [row["unit"] for row in rows if row["stage"] == "performance"]
        assert performance_units == [w.name for w in PAPER_WORKLOADS] * 2
        assert all(row["cached"] == "no" for row in rows)  # no store attached
        assert sequential.cpu_seconds() == pytest.approx(
            sum(cell.wall_seconds for cell in sequential.cells)
        )

    def test_json_dict_is_serializable_with_per_cell_rows(self, sequential):
        payload = sequential.to_json_dict()
        text = json.dumps(payload, default=str, sort_keys=True)
        decoded = json.loads(text)
        assert decoded["jobs"] == 1
        assert decoded["stages"] == STAGE_SUBSET  # canonical stage order
        assert decoded["services"] == SERVICES
        assert decoded["cache"] == {"hits": 0, "misses": SUBSET_CELLS}
        assert len(decoded["cells"]) == SUBSET_CELLS
        for cell in decoded["cells"]:
            assert cell["wall_seconds"] >= 0
            assert cell["rows"]
            assert cell["cached"] is False
            assert cell["unit"]

    def test_merge_cell_results_rebuilds_suite(self, sequential):
        rebuilt = merge_cell_results(sequential.cells)
        assert suite_stage_rows(rebuilt) == suite_stage_rows(sequential.suite)

    def test_results_json_dict_is_deterministic_across_executions(self, sequential):
        # The results document carries no wall clocks, worker counts or
        # cache fields, so any re-execution of the same campaign produces
        # the exact same document — the property `cloudbench merge` relies
        # on to diff byte-identically against `cloudbench all`.
        parallel = CampaignRunner(SERVICES, STAGE_SUBSET, jobs=4, config=CONFIG).run().campaigns[0]
        assert parallel.results_json_dict() == sequential.results_json_dict()
        document = sequential.results_json_dict()
        assert set(document) == {"schema", "seed", "stages", "services", "cells"}
        assert all(set(cell) == {"stage", "service", "unit", "rows"} for cell in document["cells"])

    def test_run_accepts_explicit_cell_subset(self, sequential):
        # Shard workers execute a slice of the plan through run_cells.
        runner = CampaignRunner(SERVICES, STAGE_SUBSET, jobs=1, config=CONFIG)
        subset = runner.cells()[:3]
        partial = runner.run_cells(subset)
        assert [result.cell for result in partial] == subset
        full_rows = [result.rows() for result in sequential.cells[:3]]
        assert [result.rows() for result in partial] == full_rows


class TestSuiteIntegration:
    def test_all_stage_names_runnable(self):
        # Every advertised stage has a registered runner and unit planner.
        runner = CampaignRunner(["dropbox"], list(STAGES), config=CONFIG)
        planned_stages = list(dict.fromkeys(cell.stage for cell in runner.cells()))
        assert planned_stages == list(STAGES)
