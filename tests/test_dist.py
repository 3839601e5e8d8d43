"""Tests for repro.dist: shard plans, claim leases, workers and the merger."""

from __future__ import annotations

import os
import time

import pytest

from repro.core.campaign import CampaignConfig, CampaignRunner, suite_stage_rows
from repro.core.report import to_json_text
from repro.core.store import ResultStore
from repro.dist import (
    CampaignMerger,
    ClaimBoard,
    ShardPlan,
    ShardSpec,
    ShardWorker,
    parse_shard_spec,
)
from repro.errors import DistributionError

SERVICES = ["dropbox", "googledrive"]
STAGE_SUBSET = ["idle", "syn_series", "performance"]
CONFIG = CampaignConfig(repetitions=1, idle_duration=60.0, resolver_count=50)


def make_runner(store_dir, *, seed=42, jobs=1, stages=STAGE_SUBSET):
    return CampaignRunner(
        SERVICES, stages, seed=seed, jobs=jobs, config=CONFIG, store=ResultStore(str(store_dir))
    )


def plan_cells(**kwargs):
    return CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG, **kwargs).cells()


class TestShardSpec:
    def test_parse_valid_specs(self):
        assert parse_shard_spec("1/1") == ShardSpec(1, 1)
        assert parse_shard_spec(" 2/4 ") == ShardSpec(2, 4)
        assert str(ShardSpec(3, 8)) == "3/8"

    @pytest.mark.parametrize("text", ["", "2", "0/4", "5/4", "a/b", "1/0", "-1/4", "1//2"])
    def test_parse_rejects_malformed_or_out_of_range(self, text):
        with pytest.raises(DistributionError):
            parse_shard_spec(text)


class TestShardPlan:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 11])
    def test_partition_is_disjoint_and_exhaustive(self, count):
        cells = plan_cells()
        shards = ShardPlan(cells, count).shards()
        flattened = [cell for shard in shards for cell in shard]
        assert sorted(c.key for c in flattened) == sorted(c.key for c in cells)
        assert len(flattened) == len(set(c.key for c in flattened)) == len(cells)

    def test_partition_is_deterministic_across_processes_and_calls(self):
        # Two independently-planned runners (as two machines would build)
        # deal identical shards — no coordinator needed.
        first = ShardPlan(plan_cells(), 3)
        second = ShardPlan(plan_cells(), 3)
        for index in range(1, 4):
            assert [c.key for c in first.shard(index)] == [c.key for c in second.shard(index)]
        assert first.assignment() == second.assignment()

    def test_shards_preserve_plan_order(self):
        cells = plan_cells()
        order = {cell.key: position for position, cell in enumerate(cells)}
        for shard in ShardPlan(cells, 4).shards():
            positions = [order[cell.key] for cell in shard]
            assert positions == sorted(positions)

    def test_round_robin_interleaves_stages(self):
        # Round-robin dealing means no shard holds only one stage's cells
        # (the plan is stage-major; modulo spreads each stage around).
        shards = ShardPlan(plan_cells(), 2).shards()
        for shard in shards:
            assert len({cell.stage for cell in shard}) > 1

    def test_single_shard_is_the_whole_plan(self):
        cells = plan_cells()
        assert ShardPlan(cells, 1).shard(1) == cells

    def test_invalid_indices_and_counts_raise(self):
        plan = ShardPlan(plan_cells(), 2)
        with pytest.raises(DistributionError):
            plan.shard(0)
        with pytest.raises(DistributionError):
            plan.shard(3)
        with pytest.raises(DistributionError):
            ShardPlan([], 0)


class TestClaimBoard:
    def setup_board(self, tmp_path, runner_id, timeout=60.0):
        return ClaimBoard(ResultStore(str(tmp_path / "store")), runner_id, lease_timeout=timeout)

    def test_claim_is_exclusive_between_runners(self, tmp_path):
        cell = plan_cells()[0]
        alpha = self.setup_board(tmp_path, "alpha")
        beta = self.setup_board(tmp_path, "beta")
        assert alpha.claim(cell) is True
        assert beta.claim(cell) is False
        lease = beta.holder(cell)
        assert lease is not None and lease.runner == "alpha"

    def test_reclaim_by_same_runner_is_idempotent(self, tmp_path):
        # A relaunched worker with the same id resumes its own leases.
        cell = plan_cells()[0]
        alpha = self.setup_board(tmp_path, "alpha")
        assert alpha.claim(cell) is True
        assert alpha.claim(cell) is True

    def test_release_frees_the_cell(self, tmp_path):
        cell = plan_cells()[0]
        alpha = self.setup_board(tmp_path, "alpha")
        beta = self.setup_board(tmp_path, "beta")
        assert alpha.claim(cell)
        alpha.release(cell)
        assert beta.claim(cell) is True
        beta.release(cell)
        beta.release(cell)  # double release is harmless

    def test_stale_lease_is_reclaimed(self, tmp_path):
        cell = plan_cells()[0]
        alpha = self.setup_board(tmp_path, "alpha", timeout=30.0)
        beta = self.setup_board(tmp_path, "beta", timeout=30.0)
        assert alpha.claim(cell)
        # Age the lease past the timeout, as a dead runner's would.
        old = time.time() - 300.0  # repro: disable=DET003 (aging a lease file is the point)
        os.utime(alpha.path_for(cell), (old, old))
        assert beta.claim(cell) is True
        lease = beta.holder(cell)
        assert lease is not None and lease.runner == "beta"

    def test_heartbeat_keeps_a_lease_fresh(self, tmp_path):
        cell = plan_cells()[0]
        alpha = self.setup_board(tmp_path, "alpha", timeout=30.0)
        beta = self.setup_board(tmp_path, "beta", timeout=30.0)
        assert alpha.claim(cell)
        old = time.time() - 300.0  # repro: disable=DET003 (aging a lease file is the point)
        os.utime(alpha.path_for(cell), (old, old))
        alpha.heartbeat(cell)  # the worker is alive after all
        assert beta.claim(cell) is False

    def test_garbage_claim_file_is_reclaimable(self, tmp_path):
        cell = plan_cells()[0]
        alpha = self.setup_board(tmp_path, "alpha")
        os.makedirs(alpha.root, exist_ok=True)
        with open(alpha.path_for(cell), "w", encoding="utf-8") as handle:
            handle.write("not json")
        old = time.time() - 300.0  # repro: disable=DET003 (aging a lease file is the point)
        os.utime(alpha.path_for(cell), (old, old))
        assert alpha.claim(cell) is True

    def test_leases_enumerates_the_board(self, tmp_path):
        cells = plan_cells()[:3]
        alpha = self.setup_board(tmp_path, "alpha")
        for cell in cells:
            assert alpha.claim(cell)
        leases = alpha.leases()
        assert len(leases) == 3 and {lease.runner for lease in leases} == {"alpha"}


class TestShardWorker:
    def test_worker_requires_store_and_exactly_one_mode(self, tmp_path):
        bare = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG)
        with pytest.raises(DistributionError, match="store"):
            ShardWorker(bare, shard=ShardSpec(1, 2))
        stored = make_runner(tmp_path / "store")
        with pytest.raises(DistributionError, match="exactly one"):
            ShardWorker(stored)
        with pytest.raises(DistributionError, match="exactly one"):
            ShardWorker(stored, shard=ShardSpec(1, 2), steal=True)

    def test_two_static_workers_complete_disjoint_halves(self, tmp_path):
        store_dir = tmp_path / "store"
        one = ShardWorker(make_runner(store_dir), shard=ShardSpec(1, 2), runner_id="w1").run()
        two = ShardWorker(make_runner(store_dir), shard=ShardSpec(2, 2), runner_id="w2").run()
        total = len(plan_cells())
        assert len(one.computed) + len(two.computed) == total
        assert not set(one.computed) & set(two.computed)
        assert one.hits == 0 and two.hits == 0

    def test_sharded_run_merges_bit_identical_to_sequential(self, tmp_path):
        store_dir = tmp_path / "store"
        ShardWorker(make_runner(store_dir), shard=ShardSpec(1, 2), runner_id="w1").run()
        ShardWorker(make_runner(store_dir), shard=ShardSpec(2, 2), runner_id="w2").run()
        merged = CampaignMerger(make_runner(store_dir)).collect()
        sequential = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run().campaigns[0]
        assert suite_stage_rows(merged.campaign.suite) == suite_stage_rows(sequential.suite)
        assert merged.campaign.suite.summary_text() == sequential.suite.summary_text()
        assert to_json_text(merged.campaign.results_json_dict()) == to_json_text(
            sequential.results_json_dict()
        )

    def test_merge_reports_per_runner_accounting(self, tmp_path):
        store_dir = tmp_path / "store"
        ShardWorker(make_runner(store_dir), shard=ShardSpec(1, 2), runner_id="w1").run()
        ShardWorker(make_runner(store_dir), shard=ShardSpec(2, 2), runner_id="w2").run()
        merged = CampaignMerger(make_runner(store_dir)).collect()
        total = len(plan_cells())
        assert set(merged.runner_cells) == {"w1", "w2"}
        assert sum(merged.runner_cells.values()) == total
        rows = merged.runner_rows()
        assert [row["runner"] for row in rows] == ["w1", "w2"]
        assert all(row["cell_cpu_s"] >= 0 for row in rows)

    def test_killed_static_worker_relaunch_converges(self, tmp_path):
        # Simulate a worker dying mid-shard: run only a prefix of its cells
        # into the store, then relaunch the full shard — it computes just
        # the remainder, and the merge equals the sequential run.
        store_dir = tmp_path / "store"
        runner = make_runner(store_dir)
        shard_cells = ShardPlan(runner.cells(), 2).shard(1)
        runner.run_cells(shard_cells[: len(shard_cells) // 2])  # "killed" here
        relaunched = ShardWorker(make_runner(store_dir), shard=ShardSpec(1, 2), runner_id="w1").run()
        assert relaunched.hits == len(shard_cells) // 2
        assert len(relaunched.computed) == len(shard_cells) - len(shard_cells) // 2
        ShardWorker(make_runner(store_dir), shard=ShardSpec(2, 2), runner_id="w2").run()
        merged = CampaignMerger(make_runner(store_dir)).collect()
        sequential = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run().campaigns[0]
        assert to_json_text(merged.campaign.results_json_dict()) == to_json_text(
            sequential.results_json_dict()
        )

    def test_steal_worker_computes_everything_alone(self, tmp_path):
        store_dir = tmp_path / "store"
        report = ShardWorker(make_runner(store_dir), steal=True, runner_id="solo").run()
        assert len(report.computed) == report.planned == len(plan_cells())
        assert report.yielded == []
        merged = CampaignMerger(make_runner(store_dir)).collect()
        sequential = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run().campaigns[0]
        assert to_json_text(merged.campaign.results_json_dict()) == to_json_text(
            sequential.results_json_dict()
        )

    def test_second_steal_worker_sees_only_hits(self, tmp_path):
        store_dir = tmp_path / "store"
        ShardWorker(make_runner(store_dir), steal=True, runner_id="first").run()
        second = ShardWorker(make_runner(store_dir), steal=True, runner_id="second").run()
        assert second.computed == [] and second.hits == second.planned

    def test_steal_worker_yields_cells_leased_by_live_rival(self, tmp_path):
        store_dir = tmp_path / "store"
        runner = make_runner(store_dir)
        held = runner.cells()[0]
        rival = ClaimBoard(ResultStore(str(store_dir)), "rival", lease_timeout=120.0)
        assert rival.claim(held)
        report = ShardWorker(make_runner(store_dir), steal=True, runner_id="fast", lease_timeout=120.0).run()
        assert report.yielded == [held.key]
        assert len(report.computed) == report.planned - 1
        assert [cell.key for cell in CampaignMerger(make_runner(store_dir)).missing()] == [held.key]

    def test_steal_worker_reclaims_stale_lease_of_killed_rival(self, tmp_path):
        # A rival claimed a cell and died (no heartbeats): after the lease
        # timeout any worker reclaims it, and the campaign still converges
        # to the sequential result.
        store_dir = tmp_path / "store"
        runner = make_runner(store_dir)
        held = runner.cells()[0]
        rival = ClaimBoard(ResultStore(str(store_dir)), "dead-rival", lease_timeout=5.0)
        assert rival.claim(held)
        old = time.time() - 600.0  # repro: disable=DET003 (aging a lease file is the point)
        os.utime(rival.path_for(held), (old, old))
        report = ShardWorker(make_runner(store_dir), steal=True, runner_id="survivor", lease_timeout=5.0).run()
        assert report.yielded == [] and len(report.computed) == report.planned
        merged = CampaignMerger(make_runner(store_dir)).collect()
        sequential = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run().campaigns[0]
        assert to_json_text(merged.campaign.results_json_dict()) == to_json_text(
            sequential.results_json_dict()
        )

    def test_static_and_steal_workers_cooperate_on_one_store(self, tmp_path):
        # Mixed fleet: a static half-shard plus a stealing mop-up worker.
        store_dir = tmp_path / "store"
        ShardWorker(make_runner(store_dir), shard=ShardSpec(1, 2), runner_id="static").run()
        mop_up = ShardWorker(make_runner(store_dir), steal=True, runner_id="steal").run()
        assert mop_up.hits == len(ShardPlan(plan_cells(), 2).shard(1))
        merged = CampaignMerger(make_runner(store_dir)).collect()
        assert sum(merged.runner_cells.values()) == len(plan_cells())
        assert set(merged.runner_cells) == {"static", "steal"}


class TestCampaignMerger:
    def test_merger_requires_store(self):
        bare = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG)
        with pytest.raises(DistributionError, match="store"):
            CampaignMerger(bare)

    def test_collect_fails_fast_listing_missing_cells(self, tmp_path):
        merger = CampaignMerger(make_runner(tmp_path / "store"))
        with pytest.raises(DistributionError, match="idle/dropbox"):
            merger.collect()

    def test_wait_times_out_with_missing_cells_named(self, tmp_path):
        merger = CampaignMerger(make_runner(tmp_path / "store"), poll_interval=0.01)
        with pytest.raises(DistributionError, match="timed out"):
            merger.collect(wait=True, timeout=0.05)

    def test_wait_returns_once_store_completes(self, tmp_path):
        store_dir = tmp_path / "store"
        ShardWorker(make_runner(store_dir), steal=True, runner_id="solo").run()
        merger = CampaignMerger(make_runner(store_dir), poll_interval=0.01)
        merged = merger.collect(wait=True, timeout=5.0)
        assert merger.missing() == []
        assert len(merged.campaign.cells) == len(plan_cells())
