"""Tests for workload specs, metric computation and report rendering."""

from __future__ import annotations

import pytest

from repro.core.metrics import MetricAggregate, PerformanceMetrics, aggregate_metrics, compute_performance_metrics
from repro.core.report import render_grouped_bars, render_series, render_table, to_csv
from repro.core.workloads import PAPER_WORKLOADS, WorkloadSpec, workload_by_name
from repro.errors import CaptureError, ExperimentError, WorkloadError
from repro.filegen.model import FileKind
from repro.testbed.controller import TestbedController
from repro.units import KB, MB


class TestWorkloads:
    def test_paper_workloads_match_section5(self):
        labels = {(w.file_count, w.file_size) for w in PAPER_WORKLOADS}
        assert labels == {(1, 100 * KB), (1, 1 * MB), (10, 100 * KB), (100, 10 * KB)}

    def test_workload_labels(self):
        assert [workload.label for workload in PAPER_WORKLOADS] == ["1x100kB", "1x1MB", "10x100kB", "100x10kB"]
        # Only a number's trailing zeros go, never a zero after its point.
        assert WorkloadSpec(name="a", file_count=1, file_size=1_050_000).label == "1x1.05MB"
        assert WorkloadSpec(name="b", file_count=3, file_size=2_048_000).label == "3x2.05MB"
        assert WorkloadSpec(name="c", file_count=1, file_size=1_500_000).label == "1x1.5MB"
        assert WorkloadSpec(name="d", file_count=1, file_size=100_500).label == "1x100.5kB"

    def test_lookup_is_case_insensitive_and_validates(self):
        assert workload_by_name("1X100KB").file_size == 100 * KB
        with pytest.raises(WorkloadError):
            workload_by_name("3x3MB")

    def test_generation_produces_right_files(self):
        spec = workload_by_name("10x100kB")
        files = spec.generate()
        assert len(files) == 10
        assert all(file.size == 100 * KB for file in files)
        assert spec.total_bytes == 1 * MB

    def test_repetitions_get_fresh_content(self):
        spec = workload_by_name("1x100kB")
        first = spec.generate(repetition=0)[0]
        second = spec.generate(repetition=1)[0]
        assert first.digest != second.digest

    def test_generation_is_a_function_of_seed_and_repetition(self):
        spec = workload_by_name("10x100kB")
        first = spec.generate(seed=7, repetition=3)
        again = spec.generate(seed=7, repetition=3)
        assert [(f.name, f.digest) for f in first] == [(f.name, f.digest) for f in again]
        assert len({file.digest for file in first}) == 10
        other_seed = spec.generate(seed=8, repetition=3)
        assert [f.name for f in other_seed] == [f.name for f in first]
        assert {f.digest for f in other_seed}.isdisjoint(f.digest for f in first)

    def test_invalid_spec_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="bad", file_count=0, file_size=10)


class TestMetrics:
    @pytest.fixture(scope="class")
    def observation(self):
        controller = TestbedController("googledrive")
        controller.start_session()
        return controller.sync_upload(workload_by_name("1x100kB").generate(), label="1x100kB")

    def test_compute_performance_metrics(self, observation):
        metrics = compute_performance_metrics(observation)
        assert metrics.startup_time > 0
        assert metrics.completion_time > 0
        assert metrics.overhead_fraction > 1.0
        assert metrics.upload_throughput_bps > 0
        assert metrics.workload == "1x100kB"

    def test_metrics_require_workload_bytes(self, observation):
        observation_no_bytes = type(observation)(
            service=observation.service,
            label="x",
            window_start=observation.window_start,
            window_end=observation.window_end,
            modification_time=observation.modification_time,
            benchmark_bytes=0,
            storage_hostnames=observation.storage_hostnames,
            control_hostnames=observation.control_hostnames,
            trace=observation.trace,
        )
        with pytest.raises(CaptureError):
            compute_performance_metrics(observation_no_bytes)

    def test_aggregate_metrics(self):
        def metric(value):
            return PerformanceMetrics(
                service="svc", workload="w", startup_time=value, completion_time=2 * value,
                overhead_fraction=1.1, total_traffic_bytes=100, storage_payload_bytes=90,
                upload_throughput_bps=1000.0,
            )

        aggregate = aggregate_metrics([metric(1.0), metric(3.0)])
        assert aggregate["startup"].mean == pytest.approx(2.0)
        assert aggregate["completion"].mean == pytest.approx(4.0)
        assert aggregate["repetitions"] == 2

    def test_aggregate_rejects_mixed_pairs(self):
        a = PerformanceMetrics("s1", "w", 1, 1, 1, 1, 1, 1)
        b = PerformanceMetrics("s2", "w", 1, 1, 1, 1, 1, 1)
        with pytest.raises(ExperimentError):
            aggregate_metrics([a, b])
        with pytest.raises(ExperimentError):
            aggregate_metrics([])

    def test_metric_aggregate_statistics(self):
        aggregate = MetricAggregate.from_values([1.0, 2.0, 3.0])
        assert aggregate.mean == pytest.approx(2.0)
        assert aggregate.minimum == 1.0 and aggregate.maximum == 3.0
        assert aggregate.std == pytest.approx(0.8165, rel=1e-3)


class TestReport:
    ROWS = [
        {"service": "dropbox", "value": 1.5},
        {"service": "googledrive", "value": 20},
    ]

    def test_render_table_alignment_and_title(self):
        text = render_table(self.ROWS, title="Example")
        assert text.startswith("Example")
        assert "dropbox" in text and "googledrive" in text
        assert "value" in text.splitlines()[1]

    def test_render_table_empty(self):
        assert "(no data)" in render_table([])

    def test_to_csv_quoting(self):
        rows = [{"a": "x,y", "b": 1}]
        csv_text = to_csv(rows)
        assert csv_text.splitlines()[0] == "a,b"
        assert '"x,y"' in csv_text

    def test_to_csv_empty(self):
        assert to_csv([]) == ""

    def test_render_series(self):
        text = render_series({"dropbox": [(0, 1.0), (10, 2.5)]}, x_label="t", y_label="kB")
        assert "dropbox" in text and "(10, 2.5)" in text

    def test_render_grouped_bars_layout(self):
        data = {"dropbox": {"1x1MB": 1.2, "100x10kB": 9.1}, "googledrive": {"1x1MB": 0.3}}
        text = render_grouped_bars(data, group_order=["1x1MB", "100x10kB"])
        lines = text.splitlines()
        assert "workload" in lines[0]
        assert lines[2].startswith("1x1MB")
        assert "-" in lines[3]  # missing googledrive value for 100x10kB
