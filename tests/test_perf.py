"""Tests for the perf harness: documents, the comparison gate and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.perf import (
    BENCH_SCHEMA_VERSION,
    build_document,
    capture_environment,
    compare_documents,
    load_document,
    run_benchmarks,
    strip_measurements,
    to_json_text,
    write_document,
)
from repro.perf.benchmarks import BenchmarkResult

# Micro-only, single repeat: the smallest honest run of the real suite.
TINY = dict(quick=True, repeats=1, include_campaign=False)


def _metric(name, value, *, unit="items/s", higher=True, params=None):
    return {
        "unit": unit,
        "higher_is_better": higher,
        "params": params if params is not None else {"n": 10},
        "value": value,
        "samples": [value],
        "repeats": 1,
    }


def _doc(metrics):
    return {"kind": "cloudbench-bench", "schema_version": BENCH_SCHEMA_VERSION, "environment": {}, "metrics": metrics}


class TestBenchmarkDocument:
    def test_document_shape(self):
        results = run_benchmarks(**TINY)
        document = build_document(results, environment=capture_environment())
        assert document["kind"] == "cloudbench-bench"
        assert document["schema_version"] == BENCH_SCHEMA_VERSION
        # Run-specific context lives only in the environment block.
        assert "timestamp_utc" in document["environment"]
        metrics = document["metrics"]
        assert set(metrics) == {
            "sniffer_packets_per_s",
            "flow_segments_per_s",
            "trace_queries_per_s",
            "tcp_transfers_per_s",
            "connection_cycles_per_s",
            "event_queue_events_per_s",
            "load_sessions_per_s",
            "filegen_text_bytes_per_s",
            "filegen_binary_bytes_per_s",
            "compressor_bytes_per_s",
        }
        for entry in metrics.values():
            assert set(entry) == {"unit", "higher_is_better", "params", "value", "samples", "repeats"}
            assert entry["value"] > 0
            assert entry["repeats"] == len(entry["samples"]) == 1

    def test_stripped_document_is_byte_deterministic(self):
        first = build_document(run_benchmarks(**TINY), environment=capture_environment())
        second = build_document(run_benchmarks(**TINY), environment=capture_environment())
        # Timings and environment may differ; everything else must not.
        assert to_json_text(strip_measurements(first)) == to_json_text(strip_measurements(second))

    def test_serialization_sorts_keys(self):
        document = _doc({"b_metric": _metric("b", 1.0), "a_metric": _metric("a", 2.0)})
        text = to_json_text(document)
        assert text.index('"a_metric"') < text.index('"b_metric"')
        assert text.index('"environment"') < text.index('"metrics"')
        assert text.endswith("\n")

    def test_duplicate_metric_names_rejected(self):
        result = BenchmarkResult(
            name="dup", unit="x/s", higher_is_better=True, params={}, value=1.0, samples=(1.0,)
        )
        with pytest.raises(ConfigurationError):
            build_document([result, result], environment={})

    def test_write_and_load_roundtrip(self, tmp_path):
        document = _doc({"m": _metric("m", 5.0)})
        path = str(tmp_path / "bench.json")
        write_document(path, document)
        assert load_document(path) == document

    def test_load_reports_unreadable_or_malformed_files(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_document(str(tmp_path / "absent.json"))
        malformed = tmp_path / "malformed.json"
        malformed.write_text("not json")
        with pytest.raises(ConfigurationError):
            load_document(str(malformed))

    def test_load_rejects_foreign_documents(self, tmp_path):
        wrong_kind = tmp_path / "other.json"
        wrong_kind.write_text(json.dumps({"kind": "campaign"}, sort_keys=True))
        with pytest.raises(ConfigurationError):
            load_document(str(wrong_kind))
        wrong_schema = tmp_path / "schema.json"
        wrong_schema.write_text(
            json.dumps({"kind": "cloudbench-bench", "schema_version": BENCH_SCHEMA_VERSION + 1}, sort_keys=True)
        )
        with pytest.raises(ConfigurationError):
            load_document(str(wrong_schema))


class TestComparison:
    def test_within_tolerance_is_ok(self):
        report = compare_documents(
            _doc({"m": _metric("m", 95.0)}), _doc({"m": _metric("m", 100.0)}), tolerance_pct=10.0
        )
        assert report.ok
        assert report.deltas[0].status == "ok"
        assert report.deltas[0].change_pct == pytest.approx(-5.0)

    def test_higher_is_better_drop_is_a_regression(self):
        report = compare_documents(
            _doc({"m": _metric("m", 50.0)}), _doc({"m": _metric("m", 100.0)}), tolerance_pct=10.0
        )
        assert not report.ok
        assert report.regressions[0].name == "m"

    def test_lower_is_better_rise_is_a_regression(self):
        current = _doc({"wall": _metric("wall", 30.0, unit="s", higher=False)})
        baseline = _doc({"wall": _metric("wall", 20.0, unit="s", higher=False)})
        report = compare_documents(current, baseline, tolerance_pct=25.0)
        assert not report.ok

    def test_lower_is_better_drop_is_an_improvement(self):
        current = _doc({"wall": _metric("wall", 10.0, unit="s", higher=False)})
        baseline = _doc({"wall": _metric("wall", 20.0, unit="s", higher=False)})
        report = compare_documents(current, baseline, tolerance_pct=25.0)
        assert report.ok
        assert report.deltas[0].status == "improved"

    def test_params_mismatch_is_skipped_not_judged(self):
        current = _doc({"m": _metric("m", 1.0, params={"n": 5})})
        baseline = _doc({"m": _metric("m", 1000.0, params={"n": 500})})
        report = compare_documents(current, baseline, tolerance_pct=10.0)
        assert report.ok
        assert report.deltas[0].status == "skipped"

    def test_missing_baseline_metric_is_a_regression(self):
        report = compare_documents(_doc({}), _doc({"m": _metric("m", 1.0)}), tolerance_pct=10.0)
        assert not report.ok
        assert report.regressions[0].status == "missing"

    def test_new_metric_is_informational(self):
        report = compare_documents(_doc({"m": _metric("m", 1.0)}), _doc({}), tolerance_pct=10.0)
        assert report.ok
        assert report.deltas[0].status == "new"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_documents(_doc({}), _doc({}), tolerance_pct=-1.0)

    def test_rows_put_worst_news_first(self):
        current = _doc({"bad": _metric("bad", 1.0), "fine": _metric("fine", 100.0)})
        baseline = _doc({"bad": _metric("bad", 100.0), "fine": _metric("fine", 100.0), "gone": _metric("gone", 1.0)})
        rows = compare_documents(current, baseline, tolerance_pct=10.0).rows()
        assert [row["status"] for row in rows] == ["regression", "missing", "ok"]


class TestEmissionWorkloads:
    def test_every_burst_reaches_the_sniffer(self):
        # The flow-segment and trace-query benchmarks time (or query)
        # bursts captured whole: head rows, segment and tail row.
        from repro.perf.benchmarks import _RECORDS_PER_BURST, _bench_connection, _emit_burst

        _, sniffer, connection = _bench_connection()
        trace = sniffer.trace
        handshake = len(trace)
        for index in range(3):
            _emit_burst(connection, float(index), float(index) + 0.5)
            assert len(trace) == handshake + (index + 1) * _RECORDS_PER_BURST
        assert trace.has_segments()
        assert len(trace.between(0.0, 3.0)) == handshake + 3 * _RECORDS_PER_BURST

    def test_sniffer_micro_captures_plain_rows(self, monkeypatch):
        # sniffer_packets_per_s times packet-level capture: flow elision is
        # off for its bursts, so one burst is 1000 plain rows, no segment.
        from repro.netsim.tcp import set_flow_elision
        from repro.perf import benchmarks

        real_connection = benchmarks._bench_connection
        handshake = len(real_connection()[1].trace)
        opened = []

        def recording_connection():
            opened.append(real_connection())
            return opened[-1]

        monkeypatch.setattr(benchmarks, "_bench_connection", recording_connection)
        result = benchmarks.bench_sniffer(benchmarks._RECORDS_PER_BURST, repeats=1)
        [(_, sniffer, _)] = opened
        assert len(sniffer.trace) == handshake + benchmarks._RECORDS_PER_BURST
        assert not sniffer.trace.has_segments()
        assert result.params["flow_elision"] is False
        assert set_flow_elision(True) is True  # the process-wide setting is restored


class TestBenchCli:
    def _run_quick(self, extra, tmp_path):
        path = str(tmp_path / "bench.json")
        code = main(["bench", "--quick", "--skip-campaign", "--repeats", "1", "--json", path] + extra)
        return code, path

    def test_bench_writes_canonical_document(self, tmp_path, capsys):
        code, path = self._run_quick([], tmp_path)
        assert code == 0
        document = load_document(path)
        assert "sniffer_packets_per_s" in document["metrics"]
        out = capsys.readouterr().out
        assert "Engine benchmarks (quick suite)" in out

    def test_compare_against_self_passes(self, tmp_path, capsys):
        _, baseline = self._run_quick([], tmp_path)
        code = main(
            ["bench", "--quick", "--skip-campaign", "--repeats", "1", "--compare", baseline, "--tolerance", "95"]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_exits_nonzero_on_injected_regression(self, tmp_path, capsys):
        _, baseline_path = self._run_quick([], tmp_path)
        document = load_document(baseline_path)
        document["metrics"]["sniffer_packets_per_s"]["value"] = 1e12
        write_document(baseline_path, document)
        code = main(
            ["bench", "--quick", "--skip-campaign", "--repeats", "1", "--compare", baseline_path, "--tolerance", "25"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "PERFORMANCE REGRESSION" in captured.err
        assert "sniffer_packets_per_s" in captured.err

    def test_repeats_flag_is_recorded_per_metric(self, tmp_path):
        # `cloudbench bench --repeats N` must land in every micro metric's
        # document entry: N timed samples, `repeats` == N.  (The campaign
        # macro-benchmark is single-shot by design and skipped here.)
        path = str(tmp_path / "bench.json")
        code = main(["bench", "--quick", "--skip-campaign", "--repeats", "2", "--json", path])
        assert code == 0
        document = load_document(path)
        assert document["metrics"], "bench run must produce metrics"
        for name, entry in document["metrics"].items():
            assert entry["repeats"] == 2, name
            assert len(entry["samples"]) == 2, name

    def test_flow_segments_metric_present(self, tmp_path):
        results = run_benchmarks(**TINY)
        by_name = {result.name: result for result in results}
        assert "flow_segments_per_s" in by_name
        metric = by_name["flow_segments_per_s"]
        assert metric.unit == "segments/s"
        assert metric.higher_is_better
        assert metric.value > 0

    def test_compare_skips_full_baseline_for_quick_run(self, tmp_path):
        # A full-suite baseline has different workload params: a quick run
        # must not be judged against it (only compared where comparable).
        full = build_document(run_benchmarks(**TINY), environment={})
        for entry in full["metrics"].values():
            entry["params"] = dict(entry["params"], packets=10**9)
            entry["value"] = 1e12
        baseline_path = str(tmp_path / "full.json")
        write_document(baseline_path, full)
        code = main(
            ["bench", "--quick", "--skip-campaign", "--repeats", "1", "--compare", baseline_path, "--tolerance", "25"]
        )
        assert code == 0
