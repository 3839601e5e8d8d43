"""Tests for the persistent, resumable campaign result store."""

from __future__ import annotations

import dataclasses
import logging
import os
import pickle

import pytest

import repro.core.campaign as campaign_module
import repro.core.store as store_module
from repro.core.campaign import CampaignCell, CampaignConfig, CampaignRunner, run_cell, suite_stage_rows
from repro.core.store import STORE_SCHEMA_VERSION, ResultStore, cache_key

SERVICES = ["dropbox", "googledrive"]
STAGE_SUBSET = ["idle", "syn_series", "performance"]
CONFIG = CampaignConfig(repetitions=1, idle_duration=60.0, resolver_count=50)


def make_runner(tmp_path, *, seed=42, jobs=1, stages=STAGE_SUBSET, config=CONFIG):
    return CampaignRunner(
        SERVICES, stages, seed=seed, jobs=jobs, config=config, store=ResultStore(str(tmp_path / "cache"))
    )


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


class TestResultStoreRoundTrip:
    def test_save_then_load_returns_equal_payload_marked_cached(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        computed = run_cell(cell)
        store.save(computed)
        loaded = store.load(cell)
        assert loaded is not None
        assert loaded.cached is True and computed.cached is False
        assert loaded.payload == computed.payload
        assert loaded.wall_seconds == computed.wall_seconds
        assert loaded.rows() == computed.rows()

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
        # Truncate the pickle as a kill-mid-write would (pre-atomic-rename).
        with open(path, "wb") as handle:
            handle.write(b"\x80")
        with caplog.at_level(logging.WARNING, logger="repro.core.store"):
            assert store.load(cell) is None
        # The store heals: the torn entry is logged and removed, so the
        # next run recomputes and re-saves instead of tripping forever.
        assert not os.path.exists(path)
        assert any("corrupt" in record.message for record in caplog.records)
        store.save(run_cell(cell))
        assert store.load(cell) is not None

    def test_entry_with_wrong_payload_type_reads_as_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        with open(path, "wb") as handle:
            pickle.dump({"schema": STORE_SCHEMA_VERSION, "result": None}, handle)
        assert store.load(cell) is None

    def test_version_skew_entry_misses_but_is_kept_on_disk(self, tmp_path):
        # An entry pickled by a different code version (unpicklable here:
        # ImportError/AttributeError) must NOT be deleted — on a shared
        # store, mixed-version runners would otherwise destroy each
        # other's completed work.  It just misses for this version.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        with open(path, "wb") as handle:
            handle.write(b"crepro.no_such_module\nThing\n.")  # GLOBAL of a missing module
        assert store.load(cell) is None
        assert os.path.exists(path)

    def test_foreign_schema_entry_is_kept_on_disk(self, tmp_path):
        # Unlike corruption, a structurally valid entry of another schema
        # version just misses — it is not this version's to delete.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
        entry["schema"] = STORE_SCHEMA_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(entry, handle)
        assert store.load(cell) is None
        assert os.path.exists(path)

    def test_unit_cell_round_trips_with_enum_payload(self, tmp_path):
        # A compression unit cell carries FileKind enums in its points;
        # they must survive the pickle round-trip and compare equal.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="compression", service="dropbox", seed=5, unit="fake_jpeg", config=CONFIG)
        computed = run_cell(cell)
        store.save(computed)
        loaded = store.load(cell)
        assert loaded is not None and loaded.payload == computed.payload
        assert loaded.rows() == computed.rows()

    def test_entries_and_len_enumerate_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert len(store) == 0
        store.save(run_cell(CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)))
        store.save(run_cell(CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)))
        assert len(store) == 2
        assert all(path.endswith(".pkl") for path in store.entries())

    def test_save_records_runner_provenance(self, tmp_path):
        store = ResultStore(str(tmp_path), runner="machine-7")
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        store.save(run_cell(cell))
        entry = store.load_entry(cell)
        assert entry is not None and entry.runner == "machine-7"
        assert entry.cell == cell
        # An untagged store (plain `cloudbench all`) records no runner.
        untagged = ResultStore(str(tmp_path))
        untagged.save(run_cell(cell))
        assert untagged.load_entry(cell).runner is None

    def test_entries_with_meta_lists_identities(self, tmp_path):
        store = ResultStore(str(tmp_path), runner="m1")
        cells = [
            CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG),
            CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG),
        ]
        for cell in cells:
            store.save(run_cell(cell))
        meta = {(entry.cell.stage, entry.cell.service): entry.runner for entry in store.entries_with_meta()}
        assert meta == {("idle", "dropbox"): "m1", ("syn_series", "googledrive"): "m1"}

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
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
        entry["schema"] = STORE_SCHEMA_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(entry, handle)
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
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
        entry["schema"] = STORE_SCHEMA_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(entry, handle)
        assert store.prune(schema_foreign=True) == 1
        assert not os.path.exists(path)
        assert store.load(native) is not None

    def test_prune_schema_foreign_removes_version_skew_pickles(self, tmp_path):
        # The cache-miss path deliberately keeps version-skew pickles on a
        # shared store, but explicit --schema-foreign GC must remove them —
        # they are exactly the files selector-based rm cannot address.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        with open(path, "wb") as handle:
            handle.write(b"crepro.no_such_module\nThing\n.")  # GLOBAL of a missing module
        assert store.prune(schema_foreign=True) == 1
        assert not os.path.exists(path)

    def test_prune_schema_foreign_honors_older_than(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
        entry["schema"] = STORE_SCHEMA_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(entry, handle)
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
        with open(path, "wb") as handle:
            handle.write(b"\x80")  # torn pickle, freshly written
        assert store.prune(schema_foreign=True, older_than=3600.0) == 0
        assert os.path.exists(path)  # untouched: younger than the cutoff

    def test_prune_sweeps_orphaned_trace_sidecars(self, tmp_path):
        # A sidecar whose entry pickle is gone (corrupt-entry healing only
        # unlinks the .pkl) is unreachable garbage: any prune pass removes
        # it, even one whose selectors match no entry at all.
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
