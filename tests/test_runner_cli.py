"""Tests for the benchmark suite runner and the command line interface."""

from __future__ import annotations

import glob
import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.core.campaign import CampaignConfig, CampaignRunner
from repro.core.experiments.datacenters import DataCenterExperiment
from repro.core.runner import SuiteResult
from repro.core.store import ResultStore
from repro.dist import CampaignMerger

#: The checkout's ``src`` directory, for subprocesses that run the CLI.
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_concurrent_shards(argv, runner_ids):
    """Run ``cloudbench <argv> --runner-id ID`` for every ID at once; returns their stdouts.

    Each must exit 0.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    runners = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv, "--runner-id", runner_id],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for runner_id in runner_ids
    ]
    outputs = []
    try:
        for runner in runners:
            out, err = runner.communicate(timeout=300)
            assert runner.returncode == 0, err
            outputs.append(out)
    finally:
        for runner in runners:
            if runner.poll() is None:
                runner.kill()
                runner.communicate()
    return outputs


#: Each per-artifact subcommand and the campaign stage it is an alias for.
STAGE_ALIASES = {
    "capabilities": "capabilities",
    "idle": "idle",
    "datacenters": "datacenters",
    "connections": "syn_series",
    "delta": "delta",
    "compression": "compression",
    "performance": "performance",
}


def planned_runner(argv):
    """The CampaignRunner `cloudbench <argv>` plans, without running a cell."""
    from repro.cli import _campaign_runner, _targets

    parser = build_parser()
    args = parser.parse_args(argv)
    services, scenario = _targets(parser, args)
    return _campaign_runner(parser, args, services, scenario, None)


class TestSuiteResult:
    def test_summary_text_mentions_artifacts(self):
        # The campaign summary carries everything the per-figure commands
        # print: Fig. 6's aggregated-metrics table next to its bar charts,
        # and the count of Google Drive edge locations under Fig. 2.
        config = CampaignConfig(repetitions=1, idle_duration=120.0, resolver_count=100)
        stages = ["idle", "datacenters", "performance"]
        sweep = CampaignRunner(["dropbox", "googledrive"], stages, jobs=1, config=config).run()
        suite = sweep.campaigns[0].suite
        assert {row["service"] for row in suite.rows("performance")} == {"dropbox", "googledrive"}
        text = sweep.summary_text()
        assert text == suite.summary_text()
        for title in ("Fig. 1", "Fig. 2", "Fig. 6 — aggregated metrics", "Fig. 6a", "Fig. 6b", "Fig. 6c"):
            assert title in text
        edges = DataCenterExperiment(["googledrive"], resolver_count=100).run().google_edge_sites()
        assert edges and f"Google Drive edge locations discovered: {len(edges)}" in text

    def test_empty_result_summary(self):
        assert SuiteResult().summary_text() == ""


class TestStageAliases:
    FLAGS = ["--repetitions", "1", "--minutes", "3", "--resolvers", "40", "--seeds", "7,9",
             "--populations", "2k", "--rep-cells"]

    @pytest.mark.parametrize("command,stage", sorted(STAGE_ALIASES.items()))
    def test_alias_plans_like_all_with_one_stage_and_one_job(self, command, stage):
        base = ["--services", "dropbox,googledrive"]
        alias = planned_runner(base + [command, *self.FLAGS])
        full = planned_runner(base + ["all", "--stages", stage, "--jobs", "1", *self.FLAGS])
        assert alias.stages == [stage]
        assert alias.cells() == full.cells()
        assert alias.config == full.config
        assert alias.jobs == full.jobs == 1

    def test_entry_points_share_campaign_config_defaults(self):
        # Regression: `performance` used to default to 3 repetitions and
        # `datacenters` to 500 resolvers, while `all` planned 2 and 300.
        for command in ("performance", "datacenters", "all"):
            assert planned_runner([command]).config == CampaignConfig()

    def test_repeated_service_is_planned_once(self, tmp_path, capsys):
        # `--services wuala,wuala` used to plan and run every wuala cell
        # twice and report Fig. 6 rows over two copies of one repetition.
        flags = ["--seed", "7", "all", "--stages", "idle,performance", "--minutes", "1", "--repetitions", "1"]
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        assert main(["--services", "wuala", *flags, "--json", str(once)]) == 0
        assert main(["--services", "wuala,wuala", *flags, "--json", str(twice)]) == 0
        capsys.readouterr()
        assert twice.read_bytes() == once.read_bytes()
        assert planned_runner(["--services", "wuala,dropbox,wuala", *flags]).services == ["wuala", "dropbox"]

    def test_delta_alias_json_matches_all(self, tmp_path, capsys):
        alias, full = tmp_path / "alias.json", tmp_path / "all.json"
        base = ["--services", "wuala", "--seed", "7"]
        assert main(base + ["delta", "--json", str(alias)]) == 0
        assert main(base + ["all", "--stages", "delta", "--jobs", "1", "--json", str(full)]) == 0
        capsys.readouterr()
        assert alias.read_bytes() == full.read_bytes()


class TestCLI:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "capabilities", "idle", "datacenters", "connections", "delta",
            "compression", "performance", "all", "shard", "merge", "cache",
        ):
            assert command in text

    def test_main_rejects_unknown_service(self):
        with pytest.raises(SystemExit):
            main(["--services", "icloud", "idle"])

    def test_connections_command_prints_table(self, capsys):
        exit_code = main(["--services", "googledrive", "connections"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Fig. 3" in captured
        assert "googledrive" in captured

    def test_idle_command_with_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "idle.csv"
        exit_code = main(["--services", "wuala", "--csv", str(csv_path), "idle", "--minutes", "2"])
        assert exit_code == 0
        content = csv_path.read_text()
        assert content.splitlines()[0].startswith("service,")
        assert "wuala" in content
        assert "CSV written" in capsys.readouterr().out

    def test_performance_command_small_run(self, capsys):
        exit_code = main(["--services", "wuala", "performance", "--repetitions", "1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Fig. 6a" in captured and "Fig. 6c" in captured

    def test_all_command_writes_one_csv_per_stage(self, tmp_path, capsys):
        # Regression: `cloudbench all --csv` used to write only the
        # performance rows; now every completed stage gets its own CSV.
        csv_path = tmp_path / "results.csv"
        exit_code = main(
            [
                "--services", "googledrive", "--csv", str(csv_path),
                "all", "--stages", "idle,performance", "--minutes", "1", "--repetitions", "1", "--jobs", "1",
            ]
        )
        assert exit_code == 0
        idle_csv = tmp_path / "results.idle.csv"
        performance_csv = tmp_path / "results.performance.csv"
        assert idle_csv.exists() and performance_csv.exists()
        assert idle_csv.read_text().splitlines()[0].startswith("service,")
        assert "googledrive" in performance_csv.read_text()
        out = capsys.readouterr().out
        assert str(idle_csv) in out and str(performance_csv) in out

    def test_all_command_emits_timing_and_json(self, tmp_path, capsys):
        json_path = tmp_path / "campaign.json"
        timings_path = tmp_path / "timings.json"
        exit_code = main(
            [
                "--services", "googledrive", "--seed", "3",
                "all", "--stages", "idle", "--minutes", "1", "--jobs", "1",
                "--json", str(json_path), "--timings-json", str(timings_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Campaign timing (jobs=1)" in out
        assert "total wall-clock" in out
        # --json is the deterministic results document: no wall clocks,
        # worker counts or cache fields — those live in --timings-json.
        payload = json.loads(json_path.read_text())
        assert payload["seed"] == 3 and "jobs" not in payload
        assert [cell["stage"] for cell in payload["cells"]] == ["idle"]
        assert payload["cells"][0]["rows"][0]["service"] == "googledrive"
        assert "wall_seconds" not in payload["cells"][0]
        timings = json.loads(timings_path.read_text())
        assert timings["jobs"] == 1 and timings["cache"] == {"hits": 0, "misses": 1}
        assert timings["cells"][0]["wall_seconds"] >= 0

    def test_all_command_json_is_byte_identical_across_jobs(self, tmp_path):
        first = tmp_path / "jobs1.json"
        second = tmp_path / "jobs2.json"
        argv = ["--services", "googledrive", "--seed", "3", "all", "--stages", "idle,performance",
                "--minutes", "1", "--repetitions", "1"]
        assert main(argv + ["--jobs", "1", "--json", str(first)]) == 0
        assert main(argv + ["--jobs", "2", "--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_all_command_rejects_unknown_stage(self):
        with pytest.raises(SystemExit):
            main(["--services", "googledrive", "all", "--stages", "preformance"])

    def test_all_command_rejects_empty_stages_value(self):
        # Regression: `--stages " , "` used to plan a zero-cell campaign
        # and exit 0 with an empty summary instead of erroring.
        with pytest.raises(SystemExit):
            main(["--services", "googledrive", "all", "--stages", " , "])

    def test_idle_and_datacenters_accept_seed(self, capsys):
        # Regression: only capabilities/connections/delta/compression/
        # performance used to honor --seed; now every subcommand constructs
        # the same experiment identity as its campaign cell.
        assert main(["--services", "wuala", "--seed", "7", "idle", "--minutes", "1"]) == 0
        assert "wuala" in capsys.readouterr().out
        assert main(["--services", "wuala", "--seed", "7", "datacenters", "--resolvers", "50"]) == 0
        assert "wuala" in capsys.readouterr().out

    def test_all_command_timing_table_has_unit_rows(self, capsys):
        exit_code = main(
            ["--services", "googledrive", "all", "--stages", "performance", "--repetitions", "1", "--jobs", "1"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "unit" in out
        for workload in ("1x100kB", "1x1MB", "10x100kB", "100x10kB"):
            assert workload in out

    def test_all_command_cache_dir_second_run_all_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        json_first = tmp_path / "first.json"
        json_second = tmp_path / "second.json"
        argv = [
            "--services", "googledrive", "--seed", "11",
            "all", "--stages", "idle,performance", "--minutes", "1", "--repetitions", "1",
            "--jobs", "1", "--cache-dir", cache_dir,
        ]
        assert main(argv + ["--json", str(json_first)]) == 0
        first_out = capsys.readouterr().out
        assert "result store" in first_out and "0 hits" in first_out
        assert main(argv + ["--json", str(json_second)]) == 0
        second_out = capsys.readouterr().out
        assert "5 hits, 0 misses (100% cached)" in second_out

        # The summary (everything before the timing table) is byte-identical.
        marker = "Campaign timing"
        assert first_out.split(marker)[0] == second_out.split(marker)[0]

        # The deterministic results document is byte-identical: a fully
        # cache-served re-run serializes exactly as the computing run did.
        assert json_first.read_bytes() == json_second.read_bytes()

    def test_all_command_resume_defaults_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["--services", "googledrive", "all", "--stages", "idle", "--minutes", "1", "--jobs", "1", "--resume"]
        assert main(argv) == 0
        assert "result store .cloudbench-cache" in capsys.readouterr().out
        assert (tmp_path / ".cloudbench-cache" / "idle").is_dir()
        assert main(argv) == 0
        assert "1 hits, 0 misses" in capsys.readouterr().out


class TestDistributedCLI:
    CAMPAIGN = ["--stages", "idle,performance", "--minutes", "1", "--repetitions", "1"]

    def sequential_json(self, tmp_path, *, services="dropbox,googledrive", seed="13"):
        path = tmp_path / "sequential.json"
        argv = ["--services", services, "--seed", seed, "all", *self.CAMPAIGN, "--jobs", "1", "--json", str(path)]
        assert main(argv) == 0
        return path

    def test_two_workers_merge_byte_identical(self, tmp_path, capsys):
        sequential = self.sequential_json(tmp_path)
        store = str(tmp_path / "store")
        base = ["--services", "dropbox,googledrive", "--seed", "13"]
        for runner_id in ("s1", "s2"):
            argv = base + ["shard", *self.CAMPAIGN, "--store", store, "--jobs", "1", "--runner-id", runner_id]
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Shard worker s1" in out and "Shard worker s2" in out
        merged = tmp_path / "merged.json"
        assert main(base + ["merge", *self.CAMPAIGN, "--store", store, "--json", str(merged)]) == 0
        assert "Per-runner accounting" in capsys.readouterr().out
        assert merged.read_bytes() == sequential.read_bytes()

    def test_two_concurrent_runners_merge_byte_identical(self, tmp_path, capsys):
        # Two runner processes launched at once contend for every cell
        # through the claim board of one store.
        services = ["dropbox", "skydrive", "wuala", "clouddrive", "googledrive"]
        base = ["--services", ",".join(services), "--seed", "7"]
        campaign = ["--stages", "idle,syn_series", "--minutes", "1"]
        sequential = tmp_path / "sequential.json"
        assert main(base + ["all", *campaign, "--jobs", "1", "--json", str(sequential)]) == 0
        store = str(tmp_path / "store")
        run_concurrent_shards([*base, "shard", *campaign, "--store", store, "--jobs", "1"], ("w1", "w2"))
        assert sorted(glob.glob(os.path.join(store, ".claims", "*.claim"))) == []
        plan = CampaignRunner(
            services, ["idle", "syn_series"], seed=7, jobs=1,
            config=CampaignConfig(idle_duration=60.0), store=ResultStore(store),
        )
        runner_cells = CampaignMerger(plan).collect().runner_cells
        assert set(runner_cells) <= {"w1", "w2"}
        assert sum(runner_cells.values()) == len(plan.cells())
        merged = tmp_path / "merged.json"
        capsys.readouterr()
        assert main(base + ["merge", *campaign, "--store", store, "--json", str(merged)]) == 0
        assert merged.read_bytes() == sequential.read_bytes()

    def test_runners_sharing_a_runner_id_compute_each_cell_once(self, tmp_path, capsys):
        # A lease names its process, not just its runner id: two live
        # runners launched with one --runner-id respect each other's leases.
        base = ["--services", "dropbox,googledrive", "--seed", "7"]
        stages = ["idle", "syn_series", "performance"]
        campaign = ["--stages", ",".join(stages), "--minutes", "1", "--repetitions", "1"]
        sequential = tmp_path / "sequential.json"
        assert main(base + ["all", *campaign, "--jobs", "1", "--json", str(sequential)]) == 0
        store = str(tmp_path / "store")
        outputs = run_concurrent_shards([*base, "shard", *campaign, "--store", store, "--jobs", "1"], ("same", "same"))
        computed = [int(re.search(r"computed (\d+) cell", output).group(1)) for output in outputs]
        plan = CampaignRunner(
            ["dropbox", "googledrive"], stages, seed=7, jobs=1,
            config=CampaignConfig(repetitions=1, idle_duration=60.0),
        ).cells()
        assert sum(computed) == len(plan), computed
        assert sorted(glob.glob(os.path.join(store, ".claims", "*.claim"))) == []
        merged = tmp_path / "merged.json"
        capsys.readouterr()
        assert main(base + ["merge", *campaign, "--store", store, "--json", str(merged)]) == 0
        assert merged.read_bytes() == sequential.read_bytes()

    @pytest.mark.parametrize("timeout", ["0", "-5", "nan"])
    def test_lease_timeout_must_be_positive(self, tmp_path, capsys, timeout):
        # At 0 every lease would be stale on sight: argparse rejects it
        # before a store is touched.
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as excinfo:
            main(["--services", "dropbox", "shard", "--stages", "idle", "--store", str(store),
                  f"--lease-timeout={timeout}"])
        assert excinfo.value.code == 2
        assert "--lease-timeout: must be a positive number of seconds" in capsys.readouterr().err
        assert not store.exists()

    def test_merge_fails_fast_on_incomplete_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = ["--services", "dropbox,googledrive", "--seed", "13"]
        narrower = ["--stages", "idle", "--minutes", "1", "--repetitions", "1"]
        assert main(base + ["shard", *narrower, "--store", store, "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(base + ["merge", *self.CAMPAIGN, "--store", store]) == 1
        err = capsys.readouterr().err
        assert "missing" in err and "shard workers" in err

    def test_shard_help_lists_no_scheduling_mode_flag(self, capsys):
        # The scheduling-mode flags of earlier releases, by name: claiming
        # is the only scheduler.
        with pytest.raises(SystemExit) as excinfo:
            main(["shard", "--help"])
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out
        assert "--store" in usage
        assert "--shard" not in usage and "--steal" not in usage

    @pytest.mark.parametrize(
        "extra",
        [["--shard", "1/2"], ["--steal"], None],
        ids=["removed-shard-flag", "removed-steal-flag", "missing-store"],
    )
    def test_shard_rejects_removed_mode_flags_and_missing_store(self, tmp_path, extra):
        argv = ["shard"] if extra is None else ["shard", "--store", str(tmp_path / "store"), *extra]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert not (tmp_path / "store").exists()

    def test_cache_ls_and_rm(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = ["--services", "dropbox,googledrive", "--seed", "13"]
        assert main(base + ["shard", *self.CAMPAIGN, "--store", store, "--jobs", "1", "--runner-id", "w1"]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "idle" in out and "performance" in out and "w1" in out and "13" in out
        assert main(["cache", "rm", "--store", store, "--stage", "idle"]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert main(["cache", "ls", "--store", store]) == 0
        assert "idle" not in capsys.readouterr().out.split("Result store")[1]
        assert main(["cache", "rm", "--store", store, "--all"]) == 0
        assert "removed 8 entries" in capsys.readouterr().out
        assert main(["cache", "ls", "--store", store]) == 0
        assert "(no data)" in capsys.readouterr().out

    def test_cache_rm_requires_selector(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "rm", "--store", str(tmp_path / "store")])
        with pytest.raises(SystemExit):
            main(["cache", "rm", "--store", str(tmp_path / "store"), "--all", "--stage", "idle"])
        with pytest.raises(SystemExit):
            main(["cache", "rm", "--store", str(tmp_path / "store"), "--all", "--older-than", "1h"])
        with pytest.raises(SystemExit):
            main(["cache", "rm", "--store", str(tmp_path / "store"), "--schema-foreign", "--stage", "idle"])

    def test_cache_rm_older_than_gc(self, tmp_path, capsys):
        import os
        import time

        store = str(tmp_path / "store")
        base = ["--services", "googledrive", "--seed", "13"]
        assert main(base + ["shard", "--stages", "idle", "--minutes", "1", "--store", store, "--jobs", "1"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["cache", "rm", "--store", store, "--older-than", "bogus"])
        assert main(["cache", "rm", "--store", store, "--older-than", "1h"]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        for dirpath, _, filenames in os.walk(store):
            for name in filenames:
                path = os.path.join(dirpath, name)
                aged = time.time() - 7200.0  # repro: disable=DET003 (aging store entries for TTL GC)
                os.utime(path, (aged, aged))
        assert main(["cache", "rm", "--store", store, "--older-than", "1h"]) == 0
        assert "removed 1 entry" in capsys.readouterr().out

    def test_cache_rm_schema_foreign_flag(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = ["--services", "googledrive", "--seed", "13"]
        assert main(base + ["shard", "--stages", "idle", "--minutes", "1", "--store", store, "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "rm", "--store", store, "--schema-foreign"]) == 0
        assert "removed 0 entries" in capsys.readouterr().out  # nothing foreign yet

    def test_cache_ls_is_sorted_by_stage_service_unit_seed(self, tmp_path):
        from repro.cli import store_listing_rows
        from repro.core.campaign import CampaignCell, CampaignConfig, run_cell
        from repro.core.store import ResultStore

        config = CampaignConfig(repetitions=1, idle_duration=60.0, resolver_count=50)
        store = ResultStore(str(tmp_path / "store"))
        # Save deliberately out of campaign/service/seed order.
        for stage, service, unit, seed in (
            ("performance", "wuala", "1x1MB", 9),
            ("idle", "dropbox", "-", 9),
            ("performance", "dropbox", "1x100kB", 7),
            ("idle", "dropbox", "-", 7),
        ):
            store.save(run_cell(CampaignCell(stage=stage, service=service, seed=seed, unit=unit, config=config)))
        listed = [(row["stage"], row["service"], row["unit"], row["seed"]) for row in store_listing_rows(store)]
        assert listed == [
            ("idle", "dropbox", "-", 7),
            ("idle", "dropbox", "-", 9),
            ("performance", "dropbox", "1x100kB", 7),
            ("performance", "wuala", "1x1MB", 9),
        ]


class TestSweepCLI:
    SWEEP = ["--stages", "idle,performance", "--minutes", "1", "--repetitions", "1"]

    def test_all_seeds_rejects_bad_spec(self):
        with pytest.raises(SystemExit):
            main(["--services", "googledrive", "all", "--stages", "idle", "--seeds", "5..3"])
        with pytest.raises(SystemExit):
            main(["--services", "googledrive", "all", "--stages", "idle", "--seeds", "a,b"])

    def test_all_multi_seed_prints_aggregates_and_writes_sweep_json(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        argv = ["--services", "googledrive", "all", *self.SWEEP, "--jobs", "1",
                "--seeds", "7,9", "--json", str(json_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Seed sweep — 2 seed(s): 7, 9" in out
        assert "Cross-seed aggregates — performance (n=2)" in out
        assert "sweep wall-clock" in out
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == 3 and payload["seeds"] == [7, 9]
        assert len(payload["per_seed"]) == 2

    def test_all_single_seed_via_seeds_flag_matches_legacy_json(self, tmp_path):
        def run(name, seed_args, seeds_args):
            argv = ["--services", "googledrive", *seed_args, "--csv", str(tmp_path / f"{name}.csv"),
                    "all", *self.SWEEP, "--jobs", "1", *seeds_args, "--json", str(tmp_path / f"{name}.json"),
                    "--timings-json", str(tmp_path / f"{name}.timings.json")]
            assert main(argv) == 0

        run("legacy", ["--seed", "7"], [])
        run("swept", [], ["--seeds", "7"])
        assert (tmp_path / "legacy.json").read_bytes() == (tmp_path / "swept.json").read_bytes()
        for stage in ("idle", "performance"):
            legacy_csv = (tmp_path / f"legacy.{stage}.csv").read_bytes()
            assert legacy_csv == (tmp_path / f"swept.{stage}.csv").read_bytes()
        legacy, swept = (json.loads((tmp_path / f"{name}.timings.json").read_text()) for name in ("legacy", "swept"))
        assert set(legacy) == set(swept)
        assert [set(cell) for cell in legacy["cells"]] == [set(cell) for cell in swept["cells"]]

    def test_sweep_json_byte_identical_across_jobs_and_seed_order(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        base = ["--services", "googledrive", "all", *self.SWEEP]
        assert main(base + ["--jobs", "1", "--seeds", "7,9", "--json", str(first)]) == 0
        assert main(base + ["--jobs", "2", "--seeds", "9,7", "--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_sharded_sweep_merge_byte_identical(self, tmp_path, capsys):
        sequential = tmp_path / "sequential.json"
        base = ["--services", "googledrive"]
        sweep_args = [*self.SWEEP, "--seeds", "7,9"]
        assert main(base + ["all", *sweep_args, "--jobs", "1", "--json", str(sequential)]) == 0
        store = str(tmp_path / "store")
        for runner_id in ("w1", "w2"):
            assert main(base + ["shard", *sweep_args, "--store", store, "--jobs", "1", "--runner-id", runner_id]) == 0
        capsys.readouterr()
        merged = tmp_path / "merged.json"
        assert main(base + ["merge", *sweep_args, "--store", store, "--json", str(merged)]) == 0
        merge_out = capsys.readouterr().out
        assert "Seed sweep — 2 seed(s): 7, 9" in merge_out
        assert "Per-runner accounting" in merge_out
        assert merged.read_bytes() == sequential.read_bytes()

    def test_sweep_csv_writes_per_stage_aggregates(self, tmp_path, capsys):
        csv_path = tmp_path / "agg.csv"
        argv = ["--services", "googledrive", "--csv", str(csv_path),
                "all", *self.SWEEP, "--jobs", "1", "--seeds", "7,9"]
        assert main(argv) == 0
        capsys.readouterr()
        performance_csv = tmp_path / "agg.performance.csv"
        assert (tmp_path / "agg.idle.csv").exists() and performance_csv.exists()
        header = performance_csv.read_text().splitlines()[0]
        assert header == "service,unit,row,label,metric,mean,std,ci95,median,q1,q3,iqr,min,max,n"
