"""Tests for repro.obs: tracer, metrics, flight records, export, CLI.

The load-bearing properties:

* the *sim* half of a trace is a pure function of the plan — byte-identical
  across ``--jobs`` values and across shard+merge topologies once
  :func:`repro.obs.recorder.strip_wall` removes the run-specific half;
* tracing never perturbs results — a traced cell's payload rows equal the
  untraced ones;
* the metrics counters mean what they claim (store hits/misses, lease
  reclaims);
* a failed cell becomes failure context on the result, never a store entry.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.core.campaign import (
    CampaignCell,
    CampaignConfig,
    CampaignRunner,
    run_cell,
)
from repro.core.store import ResultStore
from repro.dist import ClaimBoard, ShardWorker, CampaignMerger
from repro.obs.export import chrome_trace, to_canonical_json
from repro.obs.logconfig import configure_logging
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FLIGHT_RECORD_KIND, TRACE_KIND, strip_wall
from repro.obs.tracer import NULL_TRACER, Tracer, activate, current_tracer

SERVICES = ["dropbox", "googledrive"]
CONFIG = CampaignConfig(repetitions=1, idle_duration=60.0, resolver_count=50)


def make_runner(*, jobs=1, stages=("idle", "syn_series"), store=None, trace=True, seed=42):
    return CampaignRunner(
        SERVICES, list(stages), seed=seed, jobs=jobs, config=CONFIG, store=store, trace=trace
    )


def sim_bytes(trace_doc):
    """The byte-comparable deterministic form of a campaign trace."""
    return to_canonical_json(strip_wall(trace_doc))


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2)
        registry.gauge("depth").set(5)
        registry.gauge("depth").set(3)
        hist = registry.histogram("lat", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 3}
        assert snap["gauges"] == {"depth": {"value": 3, "high": 5}}
        assert snap["histograms"]["lat"]["counts"] == [1, 1, 1]
        assert snap["histograms"]["lat"]["count"] == 3

    def test_empty_kinds_are_omitted(self):
        registry = MetricsRegistry()
        registry.counter("only").inc()
        assert "gauges" not in registry.snapshot()
        assert "histograms" not in registry.snapshot()


class TestTracer:
    def test_sim_spans_and_tracks(self):
        tracer = Tracer(label="t")
        track = tracer.register_track("sim")
        tracer.sim_span("a", 0.0, 1.5, track=track, conn=1)
        assert tracer.tracks == ["sim"]
        span = tracer.sim_spans[0]
        assert (span.name, span.start, span.end, span.track) == ("a", 0.0, 1.5, track)
        assert span.to_dict()["attrs"] == {"conn": 1}

    def test_wall_span_context_manager(self):
        tracer = Tracer(label="t")
        with tracer.wall_span("work", what="x") as attrs:
            attrs["extra"] = 1
        assert [span.name for span in tracer.wall_spans] == ["work"]
        assert tracer.wall_spans[0].attrs["extra"] == 1

    def test_null_tracer_is_inert(self):
        NULL_TRACER.sim_span("a", 0.0, 1.0)
        NULL_TRACER.count("x")
        NULL_TRACER.gauge_set("g", 1)
        NULL_TRACER.observe("h", 0.5)
        with NULL_TRACER.wall_span("w"):
            pass
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.metrics is None

    def test_activate_swaps_and_restores(self):
        assert current_tracer() is NULL_TRACER
        tracer = Tracer(label="t")
        with activate(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER


class TestFlightRecords:
    def test_run_cell_traced_attaches_flight_record(self):
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=7, config=CONFIG)
        result = run_cell(cell, True)
        record = result.trace
        assert record["kind"] == FLIGHT_RECORD_KIND
        assert record["cell"]["key"] == cell.key
        assert record["sim"]["spans"], "a sync experiment must produce sim spans"
        assert record["metrics"]["counters"]["netsim.packets"] > 0
        assert any(span["name"] == "cell.run" for span in record["wall"]["spans"])

    def test_strip_wall_drops_only_run_specific_parts(self):
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=7, config=CONFIG)
        record = run_cell(cell, True).trace
        stripped = strip_wall(record)
        assert "wall" not in stripped
        assert stripped["sim"] == record["sim"]
        assert stripped["metrics"] == record["metrics"]

    def test_tracing_does_not_perturb_results(self):
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=11, config=CONFIG)
        untraced = run_cell(cell)
        traced = run_cell(cell, True)
        assert untraced.trace is None
        assert traced.rows() == untraced.rows()

    def test_traced_cell_is_deterministic(self):
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=7, config=CONFIG)
        first = run_cell(cell, True).trace
        second = run_cell(cell, True).trace
        assert to_canonical_json(strip_wall(first)) == to_canonical_json(strip_wall(second))


class TestByteIdentity:
    def test_jobs_1_and_2_produce_identical_sim_traces(self):
        sequential = make_runner(jobs=1).run()
        parallel = make_runner(jobs=2).run()
        assert sequential.trace["cells"], "traced campaign must carry flight records"
        assert sim_bytes(sequential.trace) == sim_bytes(parallel.trace)

    def test_shard_merge_trace_matches_sequential(self, tmp_path):
        # w1 saved a prefix of the plan and stopped; a claiming w2 finishes,
        # so the merged trace reassembles flight records of both runners.
        baseline = make_runner(jobs=1).run()
        first = make_runner(store=ResultStore(str(tmp_path), runner="w1"))
        first.run_cells(first.cells()[:2])
        ShardWorker(make_runner(store=ResultStore(str(tmp_path))), runner_id="w2").run()
        merged = CampaignMerger(make_runner(store=ResultStore(str(tmp_path)))).collect()
        assert set(merged.runner_cells) == {"w1", "w2"}
        assert merged.sweep.trace is not None
        assert sim_bytes(merged.sweep.trace) == sim_bytes(baseline.trace)

    def test_cache_resume_reassembles_identical_trace(self, tmp_path):
        store_dir = str(tmp_path)
        fresh = make_runner(store=ResultStore(store_dir)).run()
        resumed = make_runner(store=ResultStore(store_dir)).run()
        assert resumed.cache_hits() == len(resumed.cells())
        assert sim_bytes(resumed.trace) == sim_bytes(fresh.trace)


class TestMetricsMeaning:
    def test_store_hits_and_misses_counted_on_harness(self, tmp_path):
        store_dir = str(tmp_path)
        first = make_runner(store=ResultStore(store_dir)).run()
        counters = first.trace["harness"]["metrics"]["counters"]
        assert counters["store.misses"] == len(first.cells())
        assert counters.get("store.hits", 0) == 0
        second = make_runner(store=ResultStore(store_dir)).run()
        counters = second.trace["harness"]["metrics"]["counters"]
        assert counters["store.hits"] == len(second.cells())

    def test_lease_reclaim_counts(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=7, config=CONFIG)
        stale = ClaimBoard(store, "dead", lease_timeout=0.05)
        assert stale.claim(cell)
        import time

        time.sleep(0.1)
        tracer = Tracer(label="live")
        with activate(tracer):
            live = ClaimBoard(store, "live", lease_timeout=0.05)
            assert live.claim(cell)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["claims.reclaimed"] == 1
        assert counters["claims.acquired"] == 1


class TestStoreSidecars:
    def test_save_writes_sidecar_and_load_reattaches(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=7, config=CONFIG)
        result = run_cell(cell, True)
        store.save(result)
        sidecar = store.trace_path_for(cell)
        assert os.path.exists(sidecar)
        loaded = store.load(cell)
        assert loaded.cached
        assert sim_bytes_record(loaded.trace) == sim_bytes_record(result.trace)
        # Prune removes the sidecar together with the entry.
        store.prune(stage="syn_series")
        assert not os.path.exists(sidecar)

    def test_untraced_save_writes_no_sidecar(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=7, config=CONFIG)
        store.save(run_cell(cell))
        assert not os.path.exists(store.trace_path_for(cell))


def sim_bytes_record(record):
    return to_canonical_json(strip_wall(record))


class TestFailureContext:
    @pytest.fixture
    def broken_idle(self, monkeypatch):
        # Inject a fault into the idle stage's experiment body: the error
        # happens inside the cell run (after planning and store addressing),
        # exactly the class of error the failure context exists for.
        import dataclasses

        from repro.core import campaign as campaign_module

        spec = campaign_module._spec("idle")

        def explode(cell):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(
            campaign_module._STAGE_SPECS, "idle", dataclasses.replace(spec, run=explode)
        )

    def failing_cell(self):
        return CampaignCell(stage="idle", service="dropbox", seed=7, config=CONFIG)

    def test_run_cell_captures_failure_instead_of_raising(self, broken_idle):
        result = run_cell(self.failing_cell())
        assert result.failed
        assert result.payload is None
        assert result.rows() == []
        failure = result.failure
        assert failure.stage == "idle"
        assert failure.service == "dropbox"
        assert failure.error_type == "RuntimeError"
        assert "injected fault" in failure.traceback_tail
        assert "injected fault" in failure.summary()

    def test_unknown_stage_still_raises(self):
        cell = CampaignCell(stage="no-such-stage", service="dropbox", seed=7, config=CONFIG)
        with pytest.raises(Exception):
            run_cell(cell)

    def test_failed_cell_never_cached_and_reported_in_timings(self, tmp_path, broken_idle):
        runner = CampaignRunner(
            ["dropbox"], ["idle"], seed=42, jobs=1, config=CONFIG,
            store=ResultStore(str(tmp_path)), trace=False,
        )
        campaign = runner.run().campaigns[0]
        assert len(campaign.failures()) == 1
        row = campaign.timing_rows()[0]
        assert row["error"] == "RuntimeError"
        assert ResultStore(str(tmp_path)).load(campaign.cells[0].cell) is None
        doc = campaign.to_json_dict()
        assert doc["cells"][0]["error"]["message"] == "injected fault"
        # The deterministic results document excludes failed cells entirely.
        assert campaign.results_json_dict()["stages"] == []

    def test_traced_failure_lands_in_flight_record(self, broken_idle):
        record = run_cell(self.failing_cell(), True).trace
        assert record["wall"]["failure"]["message"] == "injected fault"
        stripped = strip_wall(record)
        assert "wall" not in stripped


class TestChromeExport:
    def test_chrome_trace_events_cover_cells_and_harness(self):
        campaign = make_runner().run()
        exported = chrome_trace(campaign.trace)
        events = exported["traceEvents"]
        phases = {event["ph"] for event in events}
        assert "X" in phases and "M" in phases
        pids = {event["pid"] for event in events}
        assert 0 in pids, "harness events use pid 0"
        assert len(pids) == len(campaign.trace["cells"]) + 1
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_flight_record_exports_standalone(self):
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=7, config=CONFIG)
        record = run_cell(cell, True).trace
        events = chrome_trace(record)["traceEvents"]
        assert any(event["ph"] == "X" for event in events)


class TestCli:
    def run_main(self, argv):
        from repro.cli import main

        return main(argv)

    def test_all_trace_flag_writes_trace_file(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        code = self.run_main(
            ["--services", "dropbox", "all", "--stages", "idle", "--minutes", "1",
             "--repetitions", "1", "--jobs", "1", "--trace", trace_path]
        )
        assert code == 0
        with open(trace_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["kind"] == TRACE_KIND
        assert len(document["cells"]) == 1

    def test_trace_ls_show_export_roundtrip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        runner = make_runner(stages=("syn_series",), store=ResultStore(store_dir))
        runner.run()
        assert self.run_main(["trace", "ls", "--store", store_dir]) == 0
        listing = capsys.readouterr().out
        assert "syn_series" in listing and "googledrive" in listing
        assert self.run_main(["trace", "show", store_dir]) == 0
        assert "Sim spans" in capsys.readouterr().out
        out_path = str(tmp_path / "chrome.json")
        code = self.run_main(
            ["trace", "export", "--store", store_dir, "--output", out_path, "--format", "chrome"]
        )
        assert code == 0
        with open(out_path, "r", encoding="utf-8") as handle:
            assert handle.read().startswith("{")

    def test_trace_export_sim_only_is_jobs_invariant(self, tmp_path):
        paths = {}
        for jobs in (1, 2):
            runner = make_runner(jobs=jobs)
            campaign = runner.run()
            trace_path = str(tmp_path / f"trace{jobs}.json")
            from repro.obs.export import write_trace

            write_trace(trace_path, campaign.trace)
            out = str(tmp_path / f"sim{jobs}.json")
            code = self.run_main(
                ["trace", "export", "--input", trace_path, "--output", out,
                 "--format", "json", "--sim-only"]
            )
            assert code == 0
            with open(out, "rb") as handle:
                paths[jobs] = handle.read()
        assert paths[1] == paths[2]

    def test_trace_export_is_flow_elision_invariant(self, tmp_path):
        # The Chrome spans of a flow-elided run must equal those of a
        # forced-materialization run: elision changes how bulk bursts are
        # *stored*, never what the simulation does or when.  (The counter
        # half differs by design — netsim.flow_segments only exists when
        # elision is on — but chrome export carries spans and meta only.)
        from repro.netsim.tcp import set_flow_elision
        from repro.obs.export import write_trace

        exports = {}
        for elide in (True, False):
            previous = set_flow_elision(elide)
            try:
                campaign = make_runner(stages=("syn_series", "performance")).run()
            finally:
                set_flow_elision(previous)
            trace_path = str(tmp_path / f"trace_{elide}.json")
            write_trace(trace_path, campaign.trace)
            out = str(tmp_path / f"chrome_{elide}.json")
            code = self.run_main(
                ["trace", "export", "--input", trace_path, "--output", out,
                 "--format", "chrome", "--sim-only"]
            )
            assert code == 0
            with open(out, "rb") as handle:
                exports[elide] = handle.read()
        assert exports[True] == exports[False]

class TestLogging:
    def test_configure_logging_is_idempotent(self):
        first = configure_logging(0)
        second = configure_logging(1)
        assert first is second
        names = [handler.get_name() for handler in second.handlers]
        assert names.count("cloudbench-stderr") == 1
        assert second.level == logging.INFO

    def test_quiet_and_verbose_levels(self):
        assert configure_logging(-1).level == logging.ERROR
        assert configure_logging(0).level == logging.WARNING
        assert configure_logging(2).level == logging.DEBUG
        # Leave the default behind for other tests.
        configure_logging(0)

    def test_self_heal_warning_reaches_the_handler(self, tmp_path, capsys):
        import io

        stream = io.StringIO()
        configure_logging(0, stream=stream)
        try:
            store = ResultStore(str(tmp_path))
            cell = CampaignCell(stage="syn_series", service="googledrive", seed=7, config=CONFIG)
            path = store.save(run_cell(cell))
            with open(path, "wb") as handle:
                handle.write(b"\x80")
            assert store.load(cell) is None
            assert "corrupt" in stream.getvalue()
        finally:
            import sys

            configure_logging(0, stream=sys.stderr)
