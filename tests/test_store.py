"""Tests for the persistent, resumable campaign result store."""

from __future__ import annotations

import dataclasses
import json
import logging
import multiprocessing
import os
import pickle
import shutil

import pytest

import repro
import repro.core.campaign as campaign_module
import repro.core.store as store_module
from repro.cli import main
from repro.core.campaign import CampaignCell, CampaignConfig, CampaignRunner, run_cell, suite_stage_rows
from repro.core.report import to_json_text
from repro.core.store import STORE_SCHEMA_VERSION, ResultStore, cache_key, code_fingerprint, model_fingerprint

SERVICES = ["dropbox", "googledrive"]
STAGE_SUBSET = ["idle", "syn_series", "performance"]
CONFIG = CampaignConfig(repetitions=1, idle_duration=60.0, resolver_count=50)

#: The running package's source tree.
PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def make_runner(tmp_path, *, seed=42, jobs=1, stages=STAGE_SUBSET, config=CONFIG):
    return CampaignRunner(
        SERVICES, stages, seed=seed, jobs=jobs, config=config, store=ResultStore(str(tmp_path / "cache"))
    )


def rewrite_entry(path, **fields):
    """Overwrite fields of a stored entry in place, keeping the rest."""
    with open(path, "r", encoding="utf-8") as handle:
        entry = json.load(handle)
    entry.update(fields)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=False)


class TestCacheKey:
    def test_key_is_deterministic_and_identity_sensitive(self):
        cell = CampaignCell(stage="delta", service="dropbox", seed=1, unit="append", config=CONFIG)
        assert cache_key(cell) == cache_key(cell)
        for other in (
            dataclasses.replace(cell, seed=2),
            dataclasses.replace(cell, unit="random"),
            dataclasses.replace(cell, service="wuala"),
            dataclasses.replace(cell, stage="compression"),
            dataclasses.replace(cell, config=CampaignConfig(repetitions=9)),
        ):
            assert cache_key(other) != cache_key(cell)

    def test_key_covers_schema_version(self, monkeypatch):
        cell = CampaignCell(stage="delta", service="dropbox", seed=1, unit="append", config=CONFIG)
        before = cache_key(cell)
        monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1)
        assert cache_key(cell) != before

    def test_key_covers_model_fingerprint(self, monkeypatch):
        cell = CampaignCell(stage="delta", service="dropbox", seed=1, unit="append", config=CONFIG)
        before = cache_key(cell)
        monkeypatch.setattr(store_module, "model_fingerprint", lambda: "0" * 64)
        assert cache_key(cell) != before


class TestModelFingerprint:
    @pytest.fixture
    def tree(self, tmp_path):
        """A copy of the package sources, as a second checkout would hold them."""
        copy = tmp_path / "checkout" / "repro"
        shutil.copytree(PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__"))
        return copy

    def test_second_checkout_of_the_same_code_agrees(self, tree):
        # Relative paths: the fingerprint does not depend on where the
        # checkout lives, nor on bytecode caches next to the sources.
        (tree / "__pycache__").mkdir(exist_ok=True)
        (tree / "__pycache__" / "stale.py").write_text("x = 1\n")
        assert code_fingerprint(str(tree)) == model_fingerprint()

    def test_one_changed_byte_in_a_model_module_changes_it(self, tree):
        before = code_fingerprint(str(tree))
        module = tree / "netsim" / "tls.py"
        source = module.read_bytes()
        assert b"server_hello_bytes: int = 3800" in source
        module.write_bytes(source.replace(b"server_hello_bytes: int = 3800", b"server_hello_bytes: int = 9800"))
        assert code_fingerprint(str(tree)) != before

    @pytest.mark.parametrize("relative", ["obs/tracer.py", "perf/timer.py", "analysis/engine.py", "cli.py"])
    def test_tracing_benchmarking_linting_and_cli_are_not_model_code(self, tree, relative):
        before = code_fingerprint(str(tree))
        with open(tree / relative, "a", encoding="utf-8") as handle:
            handle.write("\n# an edit outside the model\n")
        assert code_fingerprint(str(tree)) == before

    def test_warm_store_misses_once_the_fingerprint_changes(self, tmp_path, tree, monkeypatch):
        cold = make_runner(tmp_path, stages=["idle"]).run()
        assert make_runner(tmp_path, stages=["idle"]).run().cache_hits() == len(cold.cells())
        module = tree / "netsim" / "tls.py"
        module.write_bytes(module.read_bytes().replace(b"3800", b"9800"))
        monkeypatch.setattr(store_module, "model_fingerprint", lambda: code_fingerprint(str(tree)))
        edited = make_runner(tmp_path, stages=["idle"]).run()
        assert edited.cache_hits() == 0 and edited.cache_misses() == len(cold.cells())
        # The entries of the other code stay until an explicit GC.
        store = ResultStore(str(tmp_path / "cache"))
        assert len(store) == 2 * len(cold.cells())
        assert store.prune(schema_foreign=True) == len(cold.cells())
        assert make_runner(tmp_path, stages=["idle"]).run().cache_hits() == len(cold.cells())


class TestResultStoreRoundTrip:
    def test_save_then_load_returns_equal_rows_marked_cached(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        computed = run_cell(cell)
        store.save(computed)
        loaded = store.load(cell)
        assert loaded is not None
        assert loaded.cached is True and computed.cached is False
        assert loaded.records == computed.records and loaded.payload is None
        assert loaded.wall_seconds == computed.wall_seconds
        assert loaded.rows() == computed.rows()

    def test_entry_is_one_json_object_of_plain_rows(self, tmp_path):
        store = ResultStore(str(tmp_path), runner="m1")
        cell = CampaignCell(stage="performance", service="dropbox", seed=5, unit="1x100kB", config=CONFIG)
        computed = run_cell(cell)
        path = store.save(computed)
        assert path == store.path_for(cell) and path.endswith(".cell.json")
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        assert list(entry) == [
            "schema", "code", "key", "runner", "wall_seconds", "stage", "service", "unit", "seed", "rows",
        ]
        assert entry["schema"] == STORE_SCHEMA_VERSION and entry["code"] == model_fingerprint()
        assert entry["key"] == cache_key(cell) and entry["runner"] == "m1"
        assert (entry["stage"], entry["service"], entry["unit"], entry["seed"]) == ("performance", "dropbox", "1x100kB", 5)
        # Performance keeps one row per run: the report averages runs that
        # --rep-cells spreads over several cells.
        assert entry["rows"] == [dataclasses.asdict(run) for run in computed.payload]
        with open(path, "rb") as handle:
            first = handle.read()
        store.save(computed)
        with open(path, "rb") as handle:
            assert handle.read() == first

    def test_load_misses_for_unknown_or_foreign_identity(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        assert store.load(cell) is None
        store.save(run_cell(cell))
        assert store.load(dataclasses.replace(cell, seed=6)) is None
        assert store.load(dataclasses.replace(cell, config=CampaignConfig(repetitions=2))) is None

    def test_schema_bump_invalidates_existing_entries(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        store.save(run_cell(cell))
        assert store.load(cell) is not None
        monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1)
        assert store.load(cell) is None

    def test_corrupt_entry_reads_as_miss_and_is_deleted(self, tmp_path, caplog):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        # Tear the entry as a kill-mid-write would (pre-atomic-rename).
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with caplog.at_level(logging.WARNING, logger="repro.core.store"):
            assert store.load(cell) is None
        # The store heals: the torn entry is logged and removed, so the
        # next run recomputes and re-saves instead of tripping forever.
        assert not os.path.exists(path)
        assert any("corrupt" in record.message for record in caplog.records)
        store.save(run_cell(cell))
        assert store.load(cell) is not None

    @pytest.mark.parametrize(
        "damage",
        [
            lambda entry: [entry],
            lambda entry: {name: value for name, value in entry.items() if name != "rows"},
            lambda entry: {name: value for name, value in entry.items() if name != "schema"},
            lambda entry: dict(entry, rows="not rows"),
            lambda entry: dict(entry, rows=[1, 2]),
            lambda entry: dict(entry, seed="5"),
        ],
        ids=["not-an-object", "no-rows", "no-schema", "rows-not-a-list", "row-not-an-object", "seed-not-an-int"],
    )
    def test_wrong_shape_entry_heals(self, tmp_path, damage):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(damage(entry), handle, sort_keys=False)
        assert store.load(cell) is None
        assert not os.path.exists(path)

    def test_foreign_schema_entry_is_kept_on_disk(self, tmp_path):
        # Unlike corruption, an intact entry of another schema version just
        # misses — it is not this version's to delete, and its other
        # fields need not have this version's shape.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": STORE_SCHEMA_VERSION + 1, "cells": {}}, handle, sort_keys=False)
        assert store.load(cell) is None
        assert os.path.exists(path)

    def test_foreign_key_entry_misses_and_is_kept_on_disk(self, tmp_path):
        # The stored key is the identity check: an entry another cell (or
        # other model code) wrote at this path is not served, nor deleted.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        rewrite_entry(path, key=cache_key(dataclasses.replace(cell, seed=6)))
        assert store.load(cell) is None
        assert os.path.exists(path)

    def test_unit_cell_round_trips_its_rows(self, tmp_path):
        # A compression unit cell's payload carries FileKind enums; its
        # rows hold their plain values and round-trip through JSON.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="compression", service="dropbox", seed=5, unit="fake_jpeg", config=CONFIG)
        computed = run_cell(cell)
        store.save(computed)
        loaded = store.load(cell)
        assert loaded is not None and loaded.records == computed.records
        assert loaded.rows() == computed.rows()

    def test_entries_and_len_enumerate_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert len(store) == 0
        store.save(run_cell(CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)))
        store.save(run_cell(CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)))
        assert len(store) == 2
        assert all(path.endswith(".cell.json") for path in store.entries())

    def test_save_records_runner_provenance(self, tmp_path):
        store = ResultStore(str(tmp_path), runner="machine-7")
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        store.save(run_cell(cell))
        loaded = store.load(cell)
        assert loaded is not None and loaded.runner == "machine-7"
        assert loaded.cell == cell
        # An untagged store (plain `cloudbench all`) records no runner.
        untagged = ResultStore(str(tmp_path))
        untagged.save(run_cell(cell))
        assert untagged.load(cell).runner is None

    def test_native_entries_list_coordinates(self, tmp_path):
        store = ResultStore(str(tmp_path), runner="m1")
        cells = [
            CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG),
            CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG),
        ]
        for cell in cells:
            store.save(run_cell(cell))
        meta = {(entry["stage"], entry["service"], entry["seed"]): entry["runner"] for entry in store.native_entries()}
        assert meta == {("idle", "dropbox", 5): "m1", ("syn_series", "googledrive", 5): "m1"}

    def test_prune_by_stage_service_and_all(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for stage, service in (("idle", "dropbox"), ("idle", "wuala"), ("syn_series", "googledrive")):
            store.save(run_cell(CampaignCell(stage=stage, service=service, seed=5, config=CONFIG)))
        assert store.prune(stage="idle", service="dropbox") == 1
        assert len(store) == 2
        assert store.prune(stage="idle") == 1
        assert len(store) == 1
        assert store.prune() == 1
        assert len(store) == 0

    def test_prune_all_removes_foreign_schema_entries_too(self, tmp_path):
        # Selector-based rm can only address entries it can read, but
        # `cache rm --all` must clear stale-version files as well — it is
        # the only GC the store has.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        rewrite_entry(path, schema=STORE_SCHEMA_VERSION + 1)
        assert store.prune(stage="idle") == 0  # unreadable by selectors
        assert store.prune() == 1
        assert len(store) == 0

    def test_prune_older_than_removes_only_aged_entries(self, tmp_path):
        store = ResultStore(str(tmp_path))
        old_cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        new_cell = CampaignCell(stage="idle", service="wuala", seed=5, config=CONFIG)
        old_path = store.save(run_cell(old_cell))
        store.save(run_cell(new_cell))
        aged = os.stat(old_path).st_mtime - 7200.0
        os.utime(old_path, (aged, aged))
        assert store.prune(older_than=86400.0) == 0  # nothing is a day old
        assert store.prune(older_than=3600.0) == 1  # only the aged entry
        assert store.load(old_cell) is None
        assert store.load(new_cell) is not None

    def test_prune_older_than_combines_with_stage_selector(self, tmp_path):
        store = ResultStore(str(tmp_path))
        idle = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        syn = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        for cell in (idle, syn):
            path = store.save(run_cell(cell))
            aged = os.stat(path).st_mtime - 7200.0
            os.utime(path, (aged, aged))
        assert store.prune(stage="idle", older_than=3600.0) == 1
        assert store.load(idle) is None and store.load(syn) is not None

    def test_prune_schema_foreign_removes_only_foreign_entries(self, tmp_path):
        store = ResultStore(str(tmp_path))
        native = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        foreign = CampaignCell(stage="idle", service="wuala", seed=5, config=CONFIG)
        store.save(run_cell(native))
        path = store.save(run_cell(foreign))
        rewrite_entry(path, schema=STORE_SCHEMA_VERSION + 1)
        assert store.prune(schema_foreign=True) == 1
        assert not os.path.exists(path)
        assert store.load(native) is not None

    def test_prune_schema_foreign_removes_foreign_code_entries(self, tmp_path):
        # An entry another model code wrote has this schema but not this
        # code: it never hits again, and --schema-foreign collects it.
        store = ResultStore(str(tmp_path))
        native = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        foreign = CampaignCell(stage="idle", service="wuala", seed=5, config=CONFIG)
        store.save(run_cell(native))
        path = store.save(run_cell(foreign))
        rewrite_entry(path, code="0" * 64)
        assert [entry["service"] for entry in store.native_entries()] == ["dropbox"]
        assert store.prune(service="wuala") == 0  # not this code's to select
        assert store.prune(schema_foreign=True) == 1
        assert not os.path.exists(path)
        assert store.load(native) is not None

    def test_prune_schema_foreign_honors_older_than(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        rewrite_entry(path, schema=STORE_SCHEMA_VERSION + 1)
        assert store.prune(schema_foreign=True, older_than=3600.0) == 0  # too fresh
        aged = os.stat(path).st_mtime - 7200.0
        os.utime(path, (aged, aged))
        assert store.prune(schema_foreign=True, older_than=3600.0) == 1

    def test_ttl_pass_spares_fresh_corrupt_entries(self, tmp_path):
        # The age filter runs before classification: a TTL-limited
        # schema-foreign sweep must neither delete nor "heal" (discard) a
        # corrupt entry younger than the cutoff.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": ')  # torn entry, freshly written
        assert store.prune(schema_foreign=True, older_than=3600.0) == 0
        assert os.path.exists(path)  # untouched: younger than the cutoff

    def test_prune_sweeps_orphaned_trace_sidecars(self, tmp_path):
        # A sidecar whose entry is gone (corrupt-entry healing only unlinks
        # the entry) is unreachable garbage: any prune pass removes it, even
        # one whose selectors match no entry at all.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        sidecar = store.trace_path_for(cell)
        with open(sidecar, "w", encoding="utf-8") as handle:
            handle.write("{}")
        os.unlink(path)  # the entry dies, the sidecar is orphaned
        assert list(store.orphan_sidecars()) == [sidecar]
        assert store.prune(stage="syn_series") == 1  # selector matches nothing
        assert not os.path.exists(sidecar)
        assert list(store.orphan_sidecars()) == []

    def test_prune_keeps_sidecars_of_live_entries(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        store.save(run_cell(cell))
        sidecar = store.trace_path_for(cell)
        with open(sidecar, "w", encoding="utf-8") as handle:
            handle.write("{}")
        assert store.prune(stage="syn_series") == 0
        assert os.path.exists(sidecar)  # its entry is alive and unselected
        assert store.prune(stage="idle") == 1
        assert not os.path.exists(sidecar)  # died with its entry

    def test_prune_orphan_sweep_honors_ttl(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        sidecar = store.trace_path_for(cell)
        with open(sidecar, "w", encoding="utf-8") as handle:
            handle.write("{}")
        os.unlink(path)
        assert store.prune(older_than=3600.0) == 0  # fresh orphan survives a TTL pass
        assert os.path.exists(sidecar)
        aged = os.stat(sidecar).st_mtime - 7200.0
        os.utime(sidecar, (aged, aged))
        assert store.prune(older_than=3600.0) == 1
        assert not os.path.exists(sidecar)

    def test_prune_all_clears_leftover_claim_files(self, tmp_path):
        store = ResultStore(str(tmp_path))
        claims = store.claims_root()
        os.makedirs(claims, exist_ok=True)
        with open(os.path.join(claims, "stale.claim"), "w", encoding="utf-8") as handle:
            handle.write("{}")
        store.save(run_cell(CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)))
        assert store.prune() == 1
        assert sorted(os.listdir(claims)) == []


class TestCampaignCaching:
    def test_cold_warm_and_uncached_runs_are_bit_identical(self, tmp_path):
        cold = make_runner(tmp_path).run().campaigns[0]
        warm = make_runner(tmp_path).run().campaigns[0]
        uncached = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run().campaigns[0]
        assert cold.cache_hits() == 0 and cold.cache_misses() == len(cold.cells)
        assert warm.cache_hits() == len(warm.cells) and warm.cache_misses() == 0
        for result in (warm, uncached):
            assert suite_stage_rows(result.suite) == suite_stage_rows(cold.suite)
            assert result.suite.summary_text() == cold.suite.summary_text()

    def test_parallel_run_fills_and_reads_the_same_store(self, tmp_path):
        cold = make_runner(tmp_path, jobs=4).run().campaigns[0]
        warm = make_runner(tmp_path, jobs=4).run().campaigns[0]
        assert cold.cache_misses() == len(cold.cells)
        assert warm.cache_hits() == len(warm.cells)
        assert suite_stage_rows(warm.suite) == suite_stage_rows(cold.suite)

    def test_seed_change_misses_the_whole_store(self, tmp_path):
        make_runner(tmp_path, seed=42).run()
        other_seed = make_runner(tmp_path, seed=43).run().campaigns[0]
        assert other_seed.cache_hits() == 0

    def test_config_change_misses_the_whole_store(self, tmp_path):
        make_runner(tmp_path).run()
        bumped = make_runner(tmp_path, config=CampaignConfig(repetitions=2, idle_duration=60.0, resolver_count=50))
        assert bumped.run().cache_hits() == 0

    def test_extended_campaign_reuses_overlapping_cells(self, tmp_path):
        # Resume semantics for a *grown* campaign: add stages, keep the
        # rest; only the new stages' cells are computed.
        first = make_runner(tmp_path, stages=["performance"]).run().campaigns[0]
        extended = make_runner(tmp_path, stages=STAGE_SUBSET).run().campaigns[0]
        assert extended.cache_hits() == len(first.cells)
        assert extended.cache_misses() == len(extended.cells) - len(first.cells)
        scratch = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run().campaigns[0]
        assert suite_stage_rows(extended.suite) == suite_stage_rows(scratch.suite)

    def test_interrupted_campaign_resumes_from_cache(self, tmp_path, monkeypatch):
        # Kill the campaign mid-grid: the first K computed cells survive in
        # the store, and the re-run completes from them bit-identically.
        real_run_cell = campaign_module.run_cell
        budget = {"left": 4}

        def dying_run_cell(cell):
            if budget["left"] <= 0:
                raise KeyboardInterrupt
            budget["left"] -= 1
            return real_run_cell(cell)

        monkeypatch.setattr(campaign_module, "run_cell", dying_run_cell)
        with pytest.raises(KeyboardInterrupt):
            make_runner(tmp_path).run()
        monkeypatch.setattr(campaign_module, "run_cell", real_run_cell)

        resumed = make_runner(tmp_path).run().campaigns[0]
        assert resumed.cache_hits() == 4
        assert resumed.cache_misses() == len(resumed.cells) - 4
        scratch = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run().campaigns[0]
        assert suite_stage_rows(resumed.suite) == suite_stage_rows(scratch.suite)
        assert resumed.suite.summary_text() == scratch.suite.summary_text()

    def test_cached_cells_keep_original_wall_seconds(self, tmp_path):
        cold = make_runner(tmp_path, stages=["syn_series"]).run().campaigns[0]
        warm = make_runner(tmp_path, stages=["syn_series"]).run().campaigns[0]
        assert [r.wall_seconds for r in warm.cells] == [r.wall_seconds for r in cold.cells]
        assert all(row["cached"] == "yes" for row in warm.timing_rows())

    def test_json_dict_reports_cache_accounting(self, tmp_path):
        make_runner(tmp_path, stages=["syn_series"]).run()
        warm = make_runner(tmp_path, stages=["syn_series"]).run().campaigns[0]
        payload = warm.to_json_dict()
        assert payload["cache"] == {"hits": len(warm.cells), "misses": 0}
        assert all(cell["cached"] for cell in payload["cells"])


class TestWarmEqualsCold:
    """A cell served from the store renders every output exactly like a fresh one."""

    @pytest.mark.parametrize(
        "services,stages,config",
        [
            (
                ["clouddrive", "googledrive"],
                ["idle", "datacenters", "syn_series", "performance", "load"],
                CampaignConfig(repetitions=1, idle_duration=60.0, resolver_count=50, load_populations=(1000,)),
            ),
            (["clouddrive", "wuala"], ["capabilities", "delta", "compression"], CONFIG),
            (["dropbox"], ["performance"], CampaignConfig(repetitions=2, rep_cells=True)),
        ],
        ids=["light-stages", "probe-stages", "rep-cells"],
    )
    def test_warm_run_renders_like_the_cold_run(self, tmp_path, services, stages, config):
        def run():
            store = ResultStore(str(tmp_path / "cache"))
            return CampaignRunner(services, stages, seed=7, jobs=1, config=config, store=store).run()

        cold = run()
        warm = run()
        assert cold.cache_hits() == 0 and warm.cache_misses() == 0
        assert all(result.payload is None for result in warm.cells())
        assert warm.summary_text() == cold.summary_text()
        assert warm.report_rows() == cold.report_rows()
        assert to_json_text(warm.document()) == to_json_text(cold.document())
        assert [cell["rows"] for cell in warm.to_json_dict()["cells"]] == [
            cell["rows"] for cell in cold.to_json_dict()["cells"]
        ]
        rows = cold.report_rows()
        if "datacenters" in rows:
            assert "Google Drive edge locations discovered: " in warm.summary_text()
        if "capabilities" in rows:
            # Table 1 keeps registry order whatever order the plan ran in.
            assert [row["service"] for row in rows["capabilities"]] == ["wuala", "clouddrive"]


class _Plant:
    """Unpickling this object opens (and so creates) the marker file."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (open, (self.marker, "w"))


class TestPlantedPickle:
    """No store path unpickles: a ``.pkl`` under a store root is never opened."""

    ARGS = ["--services", "dropbox,googledrive", "--seed", "7"]
    CAMPAIGN = ["--stages", "idle,syn_series", "--minutes", "1"]

    @pytest.fixture
    def planted(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main(self.ARGS + ["all", *self.CAMPAIGN, "--jobs", "1", "--cache-dir", root]) == 0
        marker = tmp_path / "marker"
        payload = pickle.dumps(_Plant(str(marker)))
        pickle.loads(payload).close()  # the plant is live: unpickling writes the marker
        assert marker.exists()
        marker.unlink()
        store = ResultStore(root)
        pickles = [os.path.join(root, "stray.pkl")]
        pickles += [path[: -len(".cell.json")] + ".pkl" for path in store.entries()]
        for path in pickles:
            with open(path, "wb") as handle:
                handle.write(payload)
        capsys.readouterr()
        return store, marker, pickles

    def test_no_reader_opens_it(self, planted, capsys):
        store, marker, pickles = planted
        cells = len(store)
        runner = CampaignRunner(["dropbox", "googledrive"], ["idle", "syn_series"], seed=7, config=CampaignConfig(idle_duration=60.0))
        assert all(store.load(cell) is not None for cell in runner.cells())
        assert main(["cache", "ls", "--store", store.root]) == 0
        assert f"({cells} cell(s))" in capsys.readouterr().out
        assert main(self.ARGS + ["merge", *self.CAMPAIGN, "--store", store.root]) == 0
        assert main(self.ARGS + ["all", *self.CAMPAIGN, "--jobs", "1", "--cache-dir", store.root]) == 0
        assert f"{cells} hits, 0 misses" in capsys.readouterr().out
        assert store.prune(stage="delta") == 0
        assert store.prune(service="wuala") == 0
        assert store.prune(older_than=3600.0) == 0
        assert not marker.exists()
        assert all(os.path.exists(path) for path in pickles)
        assert main(["cache", "rm", "--store", store.root, "--schema-foreign"]) == 0
        assert f"removed {len(pickles)} entries" in capsys.readouterr().out
        assert not any(os.path.exists(path) for path in pickles)
        assert len(store) == cells and not marker.exists()

    def test_rm_all_removes_it_unopened(self, planted):
        store, marker, pickles = planted
        cells = len(store)
        assert store.prune() == cells + len(pickles)
        assert not any(os.path.exists(path) for path in pickles)
        assert not marker.exists()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the injected fault reaches pool workers only by fork"
)
class TestDeadWorker:
    SERVICES = ["dropbox", "skydrive", "wuala", "clouddrive", "googledrive"]
    ARGS = ["--services", ",".join(SERVICES), "--seed", "7", "all", "--stages", "idle", "--minutes", "1", "--jobs", "2"]

    def test_finished_cells_are_kept_and_resume_completes(self, tmp_path, monkeypatch, capsys):
        uninterrupted = tmp_path / "uninterrupted.json"
        assert main(self.ARGS + ["--json", str(uninterrupted)]) == 0
        spec = campaign_module._spec("idle")

        def dying(cell):
            if cell.service == "wuala":
                os._exit(3)  # the worker process dies mid-cell
            return spec.run(cell)

        monkeypatch.setitem(campaign_module._STAGE_SPECS, "idle", dataclasses.replace(spec, run=dying))
        root = str(tmp_path / "store")
        assert main(self.ARGS + ["--cache-dir", root]) != 0
        failed = {
            line[len("FAILED "):].split(":")[0]
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("FAILED ")
        }
        assert "idle/wuala/-@7" in failed
        store = ResultStore(root)
        plan = CampaignRunner(self.SERVICES, ["idle"], seed=7, config=CampaignConfig(idle_duration=60.0)).cells()
        for cell in plan:
            assert (store.load(cell) is None) == (f"idle/{cell.service}/-@7" in failed)
        monkeypatch.undo()
        resumed = tmp_path / "resumed.json"
        assert main(self.ARGS + ["--resume", "--cache-dir", root, "--json", str(resumed)]) == 0
        assert f"{len(plan) - len(failed)} hits, {len(failed)} misses" in capsys.readouterr().out
        assert resumed.read_bytes() == uninterrupted.read_bytes()
