"""Tests for repro.dist: claim leases, claiming workers and the merger."""

from __future__ import annotations

import dataclasses
import glob
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.core.campaign as campaign_module
import repro.dist.coordinator as coordinator_module
from repro.cli import main
from repro.core.campaign import CampaignConfig, CampaignRunner, suite_stage_rows
from repro.core.report import to_json_text
from repro.core.store import ResultStore
from repro.dist import CampaignMerger, ClaimBoard, ShardWorker
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

    def test_empty_board_has_no_leases_and_no_holder(self, tmp_path):
        cell = plan_cells()[0]
        alpha = self.setup_board(tmp_path, "alpha")
        assert alpha.leases() == [] and alpha.holder(cell) is None
        assert not os.path.exists(alpha.root)  # the board directory appears with the first claim

    def test_fresh_unreadable_claim_file_is_left_to_its_writer(self, tmp_path):
        # A rival between its O_EXCL create and its record write leaves an
        # empty, fresh claim file: the cell is taken, not junk.
        cell = plan_cells()[0]
        alpha = self.setup_board(tmp_path, "alpha")
        os.makedirs(alpha.root, exist_ok=True)
        open(alpha.path_for(cell), "wb").close()
        assert alpha.claim(cell) is False
        assert alpha.holder(cell) is None and os.path.getsize(alpha.path_for(cell)) == 0

    def test_heartbeat_after_release_recreates_no_lease(self, tmp_path):
        # A heartbeat racing a release (or a rival's reclaim and release)
        # must not resurrect the claim.
        cell = plan_cells()[0]
        alpha = self.setup_board(tmp_path, "alpha")
        beta = self.setup_board(tmp_path, "beta")
        assert alpha.claim(cell)
        alpha.release(cell)
        alpha.heartbeat(cell)
        assert alpha.holder(cell) is None and alpha.leases() == []
        assert beta.claim(cell) is True

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 11])
    def test_racing_runners_claim_each_cell_exactly_once(self, tmp_path, count):
        # Every runner walks the whole plan at the same moment, as
        # concurrently launched `shard` commands do: the claims partition
        # the plan, disjoint and exhaustive, with no runner index.
        cells = plan_cells()
        boards = [self.setup_board(tmp_path, f"r{index}") for index in range(count)]
        start = threading.Barrier(count, timeout=30.0)

        def claim_all(board):
            start.wait()
            return [cell.key for cell in cells if board.claim(cell)]

        with ThreadPoolExecutor(max_workers=count) as pool:
            won = list(pool.map(claim_all, boards))
        flattened = [key for keys in won for key in keys]
        assert len(flattened) == len(set(flattened)) == len(cells)
        assert sorted(flattened) == sorted(cell.key for cell in cells)
        holders = {cell.key: boards[0].holder(cell).runner for cell in cells}
        assert holders == {key: board.runner_id for board, keys in zip(boards, won) for key in keys}


def claim_files(store_dir):
    """The lease files left on a store's claim board."""
    return sorted(glob.glob(os.path.join(str(store_dir), ".claims", "*.claim")))


def sequential_document():
    sequential = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run().campaigns[0]
    return to_json_text(sequential.results_json_dict())


class TestShardWorker:
    def test_worker_requires_store(self):
        bare = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG)
        with pytest.raises(DistributionError, match="store"):
            ShardWorker(bare)

    def test_merge_reports_per_runner_accounting(self, tmp_path):
        # w1 saved a prefix of the plan and stopped; a claiming w2 finishes.
        store_dir = tmp_path / "store"
        plan = plan_cells()
        prefix = len(plan) // 2
        CampaignRunner(
            SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG, store=ResultStore(str(store_dir), runner="w1")
        ).run_cells(plan[:prefix])
        report = ShardWorker(make_runner(store_dir), runner_id="w2").run()
        assert report.hits == prefix and len(report.computed) == len(plan) - prefix
        merged = CampaignMerger(make_runner(store_dir)).collect()
        assert merged.runner_cells == {"w1": prefix, "w2": len(plan) - prefix}
        rows = merged.runner_rows()
        assert [row["runner"] for row in rows] == ["w1", "w2"]
        assert all(row["cell_cpu_s"] >= 0 for row in rows)

    def test_killed_worker_relaunch_converges(self, tmp_path):
        # Simulate a worker dying mid-campaign: only a prefix of the plan
        # reached the store.  The relaunch computes just the remainder, and
        # the merge equals the sequential run.
        store_dir = tmp_path / "store"
        runner = make_runner(store_dir)
        plan = runner.cells()
        runner.run_cells(plan[: len(plan) // 2])  # "killed" here
        relaunched = ShardWorker(make_runner(store_dir), runner_id="w1").run()
        assert relaunched.hits == len(plan) // 2
        assert len(relaunched.computed) == len(plan) - len(plan) // 2
        merged = CampaignMerger(make_runner(store_dir)).collect()
        assert to_json_text(merged.sweep.campaigns[0].results_json_dict()) == sequential_document()

    def test_worker_computes_everything_alone(self, tmp_path):
        store_dir = tmp_path / "store"
        report = ShardWorker(make_runner(store_dir), runner_id="solo").run()
        assert len(report.computed) == report.planned == len(plan_cells())
        assert report.yielded == [] and report.failed == []
        assert claim_files(store_dir) == []
        merged = CampaignMerger(make_runner(store_dir)).collect()
        sequential = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run().campaigns[0]
        assert merged.sweep.seeds == [42]
        assert suite_stage_rows(merged.sweep.campaigns[0].suite) == suite_stage_rows(sequential.suite)
        assert merged.sweep.campaigns[0].suite.summary_text() == sequential.suite.summary_text()
        assert to_json_text(merged.sweep.campaigns[0].results_json_dict()) == to_json_text(
            sequential.results_json_dict()
        )

    def test_second_worker_sees_only_hits(self, tmp_path):
        store_dir = tmp_path / "store"
        ShardWorker(make_runner(store_dir), runner_id="first").run()
        second = ShardWorker(make_runner(store_dir), runner_id="second").run()
        assert second.computed == [] and second.hits == second.planned

    def test_worker_yields_cells_leased_by_live_rival(self, tmp_path):
        store_dir = tmp_path / "store"
        runner = make_runner(store_dir)
        held = runner.cells()[0]
        rival = ClaimBoard(ResultStore(str(store_dir)), "rival", lease_timeout=120.0)
        assert rival.claim(held)
        report = ShardWorker(make_runner(store_dir), runner_id="fast", lease_timeout=120.0).run()
        assert report.yielded == [held.key]
        assert len(report.computed) == report.planned - 1
        assert [cell.key for cell in CampaignMerger(make_runner(store_dir)).missing()] == [held.key]

    def test_worker_reclaims_stale_lease_of_killed_rival(self, tmp_path):
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
        report = ShardWorker(make_runner(store_dir), runner_id="survivor", lease_timeout=5.0).run()
        assert report.yielded == [] and len(report.computed) == report.planned
        merged = CampaignMerger(make_runner(store_dir)).collect()
        assert to_json_text(merged.sweep.campaigns[0].results_json_dict()) == sequential_document()

    def test_crash_releases_every_lease_and_reraises(self, tmp_path):
        store_dir = tmp_path / "store"
        runner = make_runner(store_dir)

        def failing_save(result):
            raise OSError("disk full")

        runner.store.save = failing_save
        with pytest.raises(OSError, match="disk full"):
            ShardWorker(runner, runner_id="w1").run()
        assert claim_files(store_dir) == []

    def test_submit_to_a_broken_pool_fails_the_cell_and_claims_no_more(self, tmp_path, monkeypatch):
        # A pool worker died between two submits, so the pool refuses work.
        class BreaksAfterOneSubmit(ProcessPoolExecutor):
            submitted = False

            def submit(self, *args, **kwargs):
                if self.submitted:
                    raise BrokenProcessPool("a child process terminated abruptly")
                self.submitted = True
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(coordinator_module, "ProcessPoolExecutor", BreaksAfterOneSubmit)
        store_dir = tmp_path / "store"
        plan = plan_cells()
        report = ShardWorker(make_runner(store_dir, jobs=2), runner_id="w1").run()
        assert report.computed == [plan[0].key] and report.failed == [plan[1].key]
        assert report.yielded == [] and report.hits == 0
        assert claim_files(store_dir) == []
        assert [cell.key for cell in CampaignMerger(make_runner(store_dir)).missing()] == [
            cell.key for cell in plan[1:]
        ]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the injected fault reaches pool workers only by fork"
)
class TestDeadPoolWorker:
    SERVICES = ["dropbox", "skydrive", "wuala", "clouddrive", "googledrive"]
    BASE = ["--services", ",".join(SERVICES), "--seed", "7"]
    CAMPAIGN = ["--stages", "idle", "--minutes", "1"]

    def test_failed_cells_are_reported_and_relaunch_completes(self, tmp_path, monkeypatch, capsys):
        uninterrupted = tmp_path / "uninterrupted.json"
        assert main(self.BASE + ["all", *self.CAMPAIGN, "--jobs", "2", "--json", str(uninterrupted)]) == 0
        spec = campaign_module._spec("idle")

        def dying(cell):
            if cell.service == "wuala":
                os._exit(3)  # the worker process dies mid-cell
            return spec.run(cell)

        monkeypatch.setitem(campaign_module._STAGE_SPECS, "idle", dataclasses.replace(spec, run=dying))
        root = str(tmp_path / "store")
        shard = self.BASE + ["shard", *self.CAMPAIGN, "--jobs", "2", "--store", root]
        capsys.readouterr()
        assert main(shard + ["--runner-id", "d1"]) == 1
        assert "idle/wuala@7" in capsys.readouterr().err
        assert claim_files(root) == []
        plan = CampaignRunner(self.SERVICES, ["idle"], seed=7, config=CampaignConfig(idle_duration=60.0)).cells()
        wuala = next(cell for cell in plan if cell.service == "wuala")
        assert ResultStore(root).load(wuala) is None
        monkeypatch.undo()
        assert main(shard + ["--runner-id", "d2"]) == 0
        merged = tmp_path / "merged.json"
        assert main(self.BASE + ["merge", *self.CAMPAIGN, "--store", root, "--json", str(merged)]) == 0
        assert merged.read_bytes() == uninterrupted.read_bytes()


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
        ShardWorker(make_runner(store_dir), runner_id="solo").run()
        merger = CampaignMerger(make_runner(store_dir), poll_interval=0.01)
        merged = merger.collect(wait=True, timeout=5.0)
        assert merger.missing() == []
        assert len(merged.sweep.campaigns[0].cells) == len(plan_cells())
