"""Tests for the figure experiments (reduced-size runs)."""

from __future__ import annotations

import pytest

from repro.core.experiments.compression import CompressionExperiment
from repro.core.experiments.delta import DELTA_CASES, DeltaEncodingExperiment
from repro.core.experiments.idle import IdleExperiment
from repro.core.experiments.performance import FIGURE_METRICS, PerformanceExperiment
from repro.core.experiments.synseries import SynSeriesExperiment
from repro.core.workloads import workload_by_name
from repro.errors import ConfigurationError
from repro.filegen.model import FileKind
from repro.units import MB, minutes


class TestIdleExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return IdleExperiment(["dropbox", "clouddrive"], duration=minutes(8)).run()

    def test_series_are_cumulative(self, result):
        for series in result.series().values():
            values = [value for _, value in series]
            assert values == sorted(values)
            assert values[-1] > 0

    def test_clouddrive_background_traffic_dominates(self, result):
        dropbox = result.services["dropbox"]
        clouddrive = result.services["clouddrive"]
        assert clouddrive.background_rate_bps > 10 * dropbox.background_rate_bps
        assert clouddrive.connections_opened > 20

    def test_rows_have_expected_columns(self, result):
        row = result.rows()[0]
        assert {"service", "login_kB", "background_bps", "daily_MB"} <= set(row)


class TestSynSeriesExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        workload = workload_by_name("100x10kB")
        small = type(workload)(name="20x10kB", file_count=20, file_size=10_000)
        return SynSeriesExperiment(["clouddrive", "googledrive"], workload=small).run()

    def test_connection_counts_reflect_per_file_connections(self, result):
        assert result.services["googledrive"].total_connections == 20
        assert result.services["clouddrive"].total_connections == 80

    def test_series_is_monotonic_in_time_and_count(self, result):
        series = result.services["clouddrive"].series
        times = [t for t, _ in series]
        counts = [c for _, c in series]
        assert times == sorted(times)
        assert counts == list(range(1, len(counts) + 1))


class TestDeltaExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return DeltaEncodingExperiment(
            ["dropbox", "googledrive", "wuala", "skydrive", "clouddrive"],
            append_sizes=[1 * MB],
            random_sizes=[4 * MB, 10 * MB],
        ).run()

    def test_dropbox_uploads_only_the_change(self, result):
        series = result.series("append")["dropbox"]
        assert all(uploaded < 0.3 for _, uploaded in series)

    def test_googledrive_reuploads_whole_file(self, result):
        series = result.series("append")["googledrive"]
        assert all(uploaded > 0.9 for _, uploaded in series)

    def test_random_case_includes_chunk_shift_effect(self, result):
        dropbox_random = dict(result.series("random")["dropbox"])
        assert 0.1 < dropbox_random[4 * MB] < 1.0

    def test_services_without_delta_or_dedup_reupload_everything(self, result):
        # Fig. 4 (§4.4): SkyDrive, Google Drive and Cloud Drive upload the
        # whole file again, whether the change is appended or inserted.
        append = result.series("append")
        random_case = {service: dict(points) for service, points in result.series("random").items()}
        for service in ("skydrive", "googledrive", "clouddrive"):
            assert all(uploaded > 0.9 * size / 1e6 for size, uploaded in append[service]), service
            assert random_case[service][10 * MB] > 9.5, service

    def test_delta_and_dedup_spare_most_of_a_10mb_file(self, result):
        # Fig. 4 right (§4.4): Dropbox's delta encoding stays far below the
        # full file at 10 MB; Wuala has no delta encoding, but its
        # deduplication spares the chunks before the insertion point.
        random_case = {service: dict(points) for service, points in result.series("random").items()}
        assert random_case["dropbox"][10 * MB] < 2.0
        assert random_case["wuala"][10 * MB] < 0.9 * 10

    def test_run_service_is_concatenation_of_unit_cases(self):
        # The campaign engine's per-case unit cells must fold back into
        # exactly the whole-service point list, in the same order.
        experiment = DeltaEncodingExperiment(["dropbox"], append_sizes=[500_000], random_sizes=[1 * MB])
        whole = experiment.run_service("dropbox")
        split = [point for case in DELTA_CASES for point in experiment.run_case("dropbox", case)]
        assert whole == split

    def test_run_case_rejects_unknown_case(self):
        experiment = DeltaEncodingExperiment(["dropbox"])
        with pytest.raises(ConfigurationError, match="valid cases"):
            experiment.run_case("dropbox", "prepend")


class TestCompressionExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return CompressionExperiment(
            ["dropbox", "googledrive", "skydrive", "wuala", "clouddrive"], sizes=[500_000]
        ).run()

    def test_text_compressed_only_by_dropbox_and_google(self, result):
        # Fig. 5a (§4.5): the three services that never compress send the
        # 500 kB of text as is.
        text = {service: points[0][1] for service, points in result.series(FileKind.TEXT).items()}
        assert text["dropbox"] < 0.3
        assert text["googledrive"] < 0.3
        for service in ("skydrive", "wuala", "clouddrive"):
            assert text[service] > 0.45, service

    def test_fake_jpeg_separates_smart_from_always(self, result):
        fake = {service: points[0][1] for service, points in result.series(FileKind.FAKE_JPEG).items()}
        assert fake["dropbox"] < 0.3
        assert fake["googledrive"] > 0.45

    def test_random_bytes_never_compressed(self, result):
        binary = {service: points[0][1] for service, points in result.series(FileKind.BINARY).items()}
        assert all(value > 0.45 for value in binary.values())

    def test_run_service_is_concatenation_of_unit_kinds(self):
        # Each content class runs on its own fresh testbed session, so the
        # campaign engine's per-kind unit cells reproduce run_service exactly.
        experiment = CompressionExperiment(["dropbox"], sizes=[200_000])
        whole = experiment.run_service("dropbox")
        split = [point for kind in experiment.kinds for point in experiment.run_kind("dropbox", kind)]
        assert whole == split


class TestPerformanceExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return PerformanceExperiment(
            services=["dropbox", "googledrive"],
            workloads=[workload_by_name("1x100kB"), workload_by_name("100x10kB")],
            repetitions=2,
            pause_between_runs=10.0,
        ).run()

    def test_all_pairs_present_with_repetitions(self, result):
        assert len(result.runs) == 2 * 2 * 2
        assert len(result.pairs()) == 4
        assert all(row["repetitions"] == 2 for row in result.rows())

    def test_figure_series_structure(self, result):
        completion = result.figure_series("completion")
        assert set(completion) == {"dropbox", "googledrive"}
        assert set(completion["dropbox"]) == {"1x100kB", "100x10kB"}

    def test_dropbox_beats_googledrive_on_many_small_files(self, result):
        completion = result.figure_series("completion")
        assert completion["dropbox"]["100x10kB"] < completion["googledrive"]["100x10kB"] / 2

    def test_googledrive_beats_dropbox_on_single_small_file(self, result):
        completion = result.figure_series("completion")
        assert completion["googledrive"]["1x100kB"] < completion["dropbox"]["1x100kB"]

    def test_run_service_is_concatenation_of_unit_pairs(self, result):
        experiment = PerformanceExperiment(
            services=["dropbox"], workloads=[workload_by_name("1x100kB"), workload_by_name("10x100kB")],
            repetitions=2, pause_between_runs=10.0,
        )
        whole = experiment.run_service("dropbox")
        split = [run for workload in experiment.workloads for run in experiment.run_pair("dropbox", workload)]
        assert whole == split

    def test_figure_series_rejects_unknown_metric_listing_valid_ones(self, result):
        with pytest.raises(ConfigurationError) as excinfo:
            result.figure_series("throughput")
        message = str(excinfo.value)
        for metric in FIGURE_METRICS:
            assert metric in message

    def test_pairs_dedups_preserving_first_seen_order(self, result):
        pairs = result.pairs()
        assert len(pairs) == len(set(pairs))  # no duplicates despite repetitions
        assert pairs[0] == (result.runs[0].service, result.runs[0].workload)

    def test_repetitions_are_deterministic_given_seed(self):
        single = PerformanceExperiment(services=["wuala"], workloads=[workload_by_name("1x100kB")], repetitions=1)
        first = single.run_single("wuala", workload_by_name("1x100kB"), 0)
        second = single.run_single("wuala", workload_by_name("1x100kB"), 0)
        assert first.completion_time == pytest.approx(second.completion_time)
        assert first.total_traffic_bytes == second.total_traffic_bytes
