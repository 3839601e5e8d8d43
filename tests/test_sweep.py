"""Tests for seed sweeps: plan = grid x seeds, cross-seed aggregation.

The determinism invariants under test mirror the acceptance criteria of the
sweep refactor: the sweep document is bit-identical across ``--jobs N``,
sharded two-worker execution merged from the store, and cache-resumed
re-runs; it is independent of the order the seeds were spelled in; and a
one-seed sweep collapses to the legacy single-seed results document byte
for byte.
"""

from __future__ import annotations

import pytest

from repro.core.campaign import CampaignConfig, CampaignRunner
from repro.core.metrics import MetricAggregate
from repro.core.report import to_json_text
from repro.core.store import ResultStore
from repro.core.sweep import SWEEP_DOC_VERSION, SweepResult, sweep_from_results
from repro.dist import CampaignMerger, ShardWorker
from repro.errors import ConfigurationError, ExperimentError
from repro.units import parse_duration, parse_seeds

SERVICES = ["dropbox"]
STAGE_SUBSET = ["idle", "performance"]
CONFIG = CampaignConfig(repetitions=1, idle_duration=60.0, resolver_count=50)
SEEDS = [7, 9]


def make_runner(*, seeds=SEEDS, jobs=1, stages=STAGE_SUBSET, services=SERVICES, store=None):
    return CampaignRunner(services, stages, seeds=seeds, jobs=jobs, config=CONFIG, store=store)


class TestParseSeeds:
    def test_single_seed(self):
        assert parse_seeds("7") == [7]

    def test_comma_list_is_sorted_and_deduplicated(self):
        assert parse_seeds("9, 7,7 ,8") == [7, 8, 9]

    def test_inclusive_range(self):
        assert parse_seeds("7..10") == [7, 8, 9, 10]

    def test_mixed_list_and_ranges(self):
        assert parse_seeds("7,8,10..12") == [7, 8, 10, 11, 12]

    def test_overlapping_range_and_singleton_deduplicate(self):
        assert parse_seeds("8,7..9") == [7, 8, 9]

    def test_negative_seeds_allowed(self):
        assert parse_seeds("-2..1") == [-2, -1, 0, 1]

    def test_degenerate_range_is_one_seed(self):
        assert parse_seeds("5..5") == [5]

    @pytest.mark.parametrize("text", ["", " , ", "a", "7..", "..7", "5..3", "7,,8", "1.5", "7-9"])
    def test_rejects_malformed_specs_quoting_grammar(self, text):
        with pytest.raises(ConfigurationError, match="accepted"):
            parse_seeds(text)

    def test_rejects_oversized_ranges_without_materializing_them(self):
        # A fat-fingered range must error cleanly, not build a billion-int list.
        with pytest.raises(ConfigurationError, match="capped"):
            parse_seeds("1..1000000000")
        with pytest.raises(ConfigurationError, match="capped"):
            parse_seeds("1..6000,10001..16000")  # each range fine, sum over cap
        with pytest.raises(ConfigurationError, match="capped"):
            parse_seeds("1..10000,20000")  # singleton past a max-size range
        assert len(parse_seeds("1..10000")) == 10000  # the cap itself is allowed
        # The cap counts *unique* seeds: overlapping ranges below the cap pass.
        assert len(parse_seeds("1..6000,3000..9000")) == 9000


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,seconds",
        [("90", 90.0), ("45s", 45.0), ("30m", 1800.0), ("12h", 43200.0), ("7d", 604800.0), ("2w", 1209600.0), ("1.5h", 5400.0), (" 10 m ", 600.0)],
    )
    def test_accepts_suffixed_ages(self, text, seconds):
        assert parse_duration(text) == seconds

    @pytest.mark.parametrize("text", ["", "x", "3y", "-5s", "h", "1..5"])
    def test_rejects_malformed_ages_quoting_grammar(self, text):
        with pytest.raises(ConfigurationError, match="accepted"):
            parse_duration(text)


class TestMetricAggregateQuantiles:
    def test_singleton_sample(self):
        aggregate = MetricAggregate.from_values([5.0])
        assert aggregate.median == aggregate.q1 == aggregate.q3 == 5.0
        assert aggregate.iqr == 0.0
        assert aggregate.count == 1

    def test_odd_sample(self):
        aggregate = MetricAggregate.from_values([5.0, 1.0, 3.0, 2.0, 4.0])  # unsorted on purpose
        assert aggregate.median == 3.0
        assert aggregate.q1 == 2.0
        assert aggregate.q3 == 4.0
        assert aggregate.iqr == 2.0

    def test_even_sample_interpolates(self):
        aggregate = MetricAggregate.from_values([1.0, 2.0, 3.0, 4.0])
        assert aggregate.median == 2.5
        assert aggregate.q1 == 1.75
        assert aggregate.q3 == 3.25
        assert aggregate.iqr == pytest.approx(1.5)

    def test_two_samples(self):
        aggregate = MetricAggregate.from_values([10.0, 20.0])
        assert aggregate.median == 15.0
        assert aggregate.q1 == 12.5
        assert aggregate.q3 == 17.5

    def test_mean_std_extrema_unchanged(self):
        aggregate = MetricAggregate.from_values([2.0, 4.0])
        assert aggregate.mean == 3.0
        assert aggregate.std == 1.0
        assert aggregate.minimum == 2.0 and aggregate.maximum == 4.0


class TestSweepPlan:
    def test_plan_is_seed_major_grid_times_seeds(self):
        cells = make_runner().cells()
        single = make_runner(seeds=[7]).cells()
        assert len(cells) == len(single) * len(SEEDS)
        assert [cell.seed for cell in cells] == [7] * len(single) + [9] * len(single)
        # Each seed's slice is exactly the single-seed plan for that seed.
        grid = [(c.stage, c.service, c.unit) for c in single]
        assert [(c.stage, c.service, c.unit) for c in cells[: len(single)]] == grid
        assert [(c.stage, c.service, c.unit) for c in cells[len(single):]] == grid

    def test_plan_is_independent_of_seed_order_and_duplicates(self):
        assert make_runner(seeds=[9, 7]).cells() == make_runner(seeds=[7, 9]).cells()
        assert make_runner(seeds=[7, 9, 7, 9]).cells() == make_runner(seeds=[7, 9]).cells()

    def test_single_seed_plan_matches_legacy_seed_argument(self):
        legacy = CampaignRunner(SERVICES, STAGE_SUBSET, seed=7, jobs=1, config=CONFIG).cells()
        assert make_runner(seeds=[7]).cells() == legacy

    def test_cell_keys_are_unique_across_seeds(self):
        keys = [cell.key for cell in make_runner().cells()]
        assert len(keys) == len(set(keys))

    def test_empty_seed_list_raises(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            make_runner(seeds=[])


class TestSweepExecution:
    @pytest.fixture(scope="class")
    def sequential(self):
        return make_runner(jobs=1).run()

    def test_sweep_groups_one_campaign_per_seed(self, sequential):
        assert sequential.seeds == SEEDS
        per_seed = len(make_runner(seeds=[7]).cells())
        for campaign, seed in zip(sequential.campaigns, SEEDS):
            assert campaign.seed == seed
            assert len(campaign.cells) == per_seed
            assert {result.cell.seed for result in campaign.cells} == {seed}

    def test_multi_seed_run_keeps_each_seed_apart(self):
        # Regression: run() on a multi-seed runner used to fold every seed's
        # cells into one campaign labelled with the first seed, keeping
        # only the last seed's idle row and doubling the delta rows.
        sweep = CampaignRunner(["wuala"], ["idle", "delta"], seeds=[7, 9], jobs=1).run()
        assert sweep.seeds == [7, 9]
        for campaign, seed in zip(sweep.campaigns, [7, 9]):
            cells = [(result.cell.stage, result.cell.unit, result.cell.seed) for result in campaign.cells]
            assert cells == [("idle", "-", seed), ("delta", "append", seed), ("delta", "random", seed)]
            assert campaign.results_json_dict()["seed"] == seed
            assert len(campaign.suite.rows("idle")) == 1
            assert len(campaign.suite.rows("delta")) == 11

    def test_each_seed_slice_equals_its_single_seed_campaign(self, sequential):
        for campaign, seed in zip(sequential.campaigns, SEEDS):
            standalone = CampaignRunner(SERVICES, STAGE_SUBSET, seed=seed, jobs=1, config=CONFIG).run().campaigns[0]
            assert to_json_text(campaign.results_json_dict()) == to_json_text(standalone.results_json_dict())

    def test_single_seed_sweep_document_is_legacy_document(self):
        sweep = make_runner(seeds=[7]).run()
        legacy = CampaignRunner(SERVICES, STAGE_SUBSET, seed=7, jobs=1, config=CONFIG).run().campaigns[0]
        assert to_json_text(sweep.document()) == to_json_text(legacy.results_json_dict())

    def test_parallel_sweep_is_bit_identical_to_sequential(self, sequential):
        parallel = make_runner(jobs=4).run()
        assert to_json_text(parallel.document()) == to_json_text(sequential.document())

    def test_sweep_document_is_independent_of_seed_order(self, sequential):
        reversed_order = make_runner(seeds=[9, 7]).run()
        assert to_json_text(reversed_order.document()) == to_json_text(sequential.document())

    def test_sweep_document_structure(self, sequential):
        document = sequential.document()
        assert document["schema"] == SWEEP_DOC_VERSION
        assert document["seeds"] == SEEDS
        assert document["stages"] == STAGE_SUBSET
        assert document["services"] == SERVICES
        assert [entry["stage"] for entry in document["aggregates"]] == STAGE_SUBSET
        assert len(document["per_seed"]) == len(SEEDS)
        for per_seed, seed in zip(document["per_seed"], SEEDS):
            assert per_seed["seed"] == seed
            assert set(per_seed) == {"schema", "seed", "stages", "services", "cells"}

    def test_aggregate_rows_are_computed_once_and_cached(self, sequential):
        first = sequential.aggregate_rows()
        assert sequential.aggregate_rows() is first  # summary/csv/json share it

    def test_aggregate_rows_reduce_across_seeds(self, sequential):
        rows_by_stage = sequential.aggregate_rows()
        assert set(rows_by_stage) == set(STAGE_SUBSET)
        for rows in rows_by_stage.values():
            assert rows
            for row in rows:
                assert row["n"] == len(SEEDS)
                assert row["min"] <= row["median"] <= row["max"]
                assert row["q1"] <= row["median"] <= row["q3"]
                assert row["min"] <= row["mean"] <= row["max"]
                assert row["iqr"] == pytest.approx(row["q3"] - row["q1"], abs=1e-6)

    def test_compression_sweep_shows_cross_seed_spread(self):
        # Compression payloads depend on the seed-derived file contents, so
        # a sweep over distinct seeds must report nonzero spread somewhere.
        sweep = make_runner(seeds=[7, 901], stages=["compression"]).run()
        rows = sweep.aggregate_rows()["compression"]
        assert any(row["std"] > 0 for row in rows)
        assert all(row["n"] == 2 for row in rows)

    def test_non_numeric_stages_render_consensus_instead_of_vanishing(self):
        # The capability matrix has no numeric column, so it produces no
        # aggregate rows — the sweep report must fall back to column-wise
        # consensus rows rather than dropping Table 1 entirely.
        sweep = make_runner(stages=["capabilities", "idle"]).run()
        assert "capabilities" not in sweep.aggregate_rows()
        consensus = sweep.consensus_rows()
        assert consensus["capabilities"]
        assert all(row["service"] == "dropbox" for row in consensus["capabilities"])
        report = sweep.report_rows()
        assert list(report) == ["capabilities", "idle"]  # every stage present
        text = sweep.summary_text()
        assert "Cross-seed consensus — capabilities" in text
        assert "Cross-seed aggregates — idle" in text

    def test_consensus_marks_seed_dependent_values(self):
        sweep = make_runner(stages=["capabilities"]).run()
        rows = sweep.consensus_rows()["capabilities"]
        # Capabilities are seed-invariant in the simulation, so every value
        # reaches consensus; the ~ marker only appears on disagreement.
        for row in rows:
            assert "~" not in row.values() or all(value != "" for value in row.values())
        single = make_runner(seeds=[7], stages=["capabilities"]).run().campaigns[0]
        assert rows == single.suite.rows("capabilities")

    def test_summary_text_renders_aggregate_tables(self, sequential):
        text = sequential.summary_text()
        assert "Seed sweep — 2 seed(s): 7, 9" in text
        assert "Cross-seed aggregates — idle (n=2)" in text
        assert "Cross-seed aggregates — performance (n=2)" in text
        assert "median" in text and "q1" in text and "iqr" in text

    def test_to_json_dict_reports_execution_record(self, sequential):
        record = sequential.to_json_dict()
        assert record["seeds"] == SEEDS
        assert record["cache"] == {"hits": 0, "misses": len(sequential.cells())}
        assert len(record["per_seed"]) == len(SEEDS)


class TestSweepStoreAndShards:
    def test_sharded_two_worker_sweep_merges_bit_identical(self, tmp_path):
        # w1 saved a prefix of the sweep plan that crosses the first seed's
        # boundary and stopped; a claiming w2 finishes the rest.
        sequential = make_runner(jobs=1).run()
        store_dir = str(tmp_path / "store")
        first = make_runner(store=ResultStore(store_dir, runner="w1"))
        plan = first.cells()
        first.run_cells(plan[: len(plan) * 2 // 3])
        ShardWorker(make_runner(store=ResultStore(store_dir)), runner_id="w2").run()
        merged = CampaignMerger(make_runner(store=ResultStore(store_dir))).collect()
        assert merged.sweep.seeds == SEEDS
        assert to_json_text(merged.sweep.document()) == to_json_text(sequential.document())
        assert set(merged.runner_cells) == {"w1", "w2"}
        assert sum(merged.runner_cells.values()) == len(sequential.cells())

    def test_one_worker_sweep_merges_bit_identical(self, tmp_path):
        sequential = make_runner(jobs=1).run()
        store_dir = str(tmp_path / "store")
        ShardWorker(make_runner(store=ResultStore(store_dir)), runner_id="solo").run()
        merged = CampaignMerger(make_runner(store=ResultStore(store_dir))).collect()
        assert to_json_text(merged.sweep.document()) == to_json_text(sequential.document())

    def test_kill_and_resume_mid_sweep_converges(self, tmp_path):
        # "Kill" a sweep after an arbitrary prefix of the plan: the
        # completed cells survive in the store, and the resumed sweep
        # computes only the remainder — producing the identical document.
        store_dir = str(tmp_path / "store")
        runner = make_runner(store=ResultStore(store_dir))
        plan = runner.cells()
        prefix = len(plan) * 2 // 3  # crosses the first seed's boundary
        runner.run_cells(plan[:prefix])  # killed here
        resumed = make_runner(store=ResultStore(store_dir)).run()
        assert resumed.cache_hits() == prefix
        assert resumed.cache_misses() == len(plan) - prefix
        fresh = make_runner(jobs=1).run()
        assert to_json_text(resumed.document()) == to_json_text(fresh.document())

    def test_extending_a_sweep_with_more_seeds_reuses_the_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        make_runner(seeds=[7], store=ResultStore(store_dir)).run()
        extended = make_runner(seeds=[7, 9], store=ResultStore(store_dir)).run()
        per_seed = len(make_runner(seeds=[7]).cells())
        assert extended.cache_hits() == per_seed
        assert extended.cache_misses() == per_seed
        fresh = make_runner(seeds=[7, 9]).run()
        assert to_json_text(extended.document()) == to_json_text(fresh.document())


class TestSweepFromResultsValidation:
    def test_foreign_seed_raises(self):
        results = make_runner(seeds=[7]).run().cells()
        with pytest.raises(ExperimentError, match="not in the sweep"):
            sweep_from_results(results, seeds=[9], jobs=1, wall_seconds=0.0)

    def test_mismatched_grids_raise(self):
        wide = make_runner(seeds=[7]).run().cells()
        narrow = make_runner(seeds=[9], stages=["idle"]).run().cells()
        with pytest.raises(ExperimentError, match="different cell grid"):
            sweep_from_results(list(wide) + list(narrow), seeds=[7, 9], jobs=1, wall_seconds=0.0)

    def test_groups_results_regardless_of_input_interleaving(self):
        ordered = make_runner().run()
        results = ordered.cells()
        half = len(results) // 2
        interleaved = [cell for pair in zip(results[:half], results[half:]) for cell in pair]
        regrouped = sweep_from_results(interleaved, seeds=SEEDS, jobs=1, wall_seconds=0.0)
        assert to_json_text(regrouped.document()) == to_json_text(ordered.document())

    def test_one_campaign_sweep_result_properties(self):
        sweep = make_runner(seeds=[7]).run()
        assert isinstance(sweep, SweepResult)
        assert sweep.seeds == [7]
        assert sweep.stages() == STAGE_SUBSET
        assert len(sweep.cells()) == len(make_runner(seeds=[7]).cells())
