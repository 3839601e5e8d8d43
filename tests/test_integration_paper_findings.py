"""End-to-end integration tests asserting the paper's headline findings.

Each test reproduces (at reduced scale) one claim from the evaluation and
checks that the *qualitative* result — who wins, by roughly what factor —
holds in this implementation.  Absolute numbers are not asserted tightly:
the substrate is a simulator, not the authors' testbed.
"""

from __future__ import annotations

import pytest

from repro.core.experiments.compression import CompressionExperiment
from repro.core.experiments.idle import IdleExperiment
from repro.core.experiments.performance import PerformanceExperiment
from repro.core.experiments.synseries import SynSeriesExperiment
from repro.core.workloads import workload_by_name
from repro.filegen.model import FileKind
from repro.services.registry import register_service_spec, temporary_services
from repro.services.spec import ServiceSpec, builtin_spec
from repro.units import minutes


@pytest.fixture(scope="module")
def performance():
    """One repetition of the four Fig. 6 workloads for all five services."""
    return PerformanceExperiment(repetitions=1, pause_between_runs=5.0).run()


class TestFigure6Findings:
    def test_dropbox_wins_100x10kb_by_a_large_factor(self, performance):
        completion = performance.figure_series("completion")
        dropbox = completion["dropbox"]["100x10kB"]
        assert all(completion[other]["100x10kB"] > 2 * dropbox for other in completion if other != "dropbox")
        # Per-file TCP/SSL connections cancel Google Drive's edge advantage,
        # and Cloud Drive adds three control connections per file (§4.2, Fig. 6b).
        assert completion["googledrive"]["100x10kB"] > 2.5 * dropbox
        assert completion["clouddrive"]["100x10kB"] > 5 * dropbox
        # "the upload time of the same file set can take seven times more"
        assert max(c["100x10kB"] for c in completion.values()) > 5 * dropbox

    def test_googledrive_and_wuala_fastest_for_single_files(self, performance):
        completion = performance.figure_series("completion")
        for workload in ("1x100kB", "1x1MB"):
            fastest_two = sorted(completion, key=lambda s: completion[s][workload])[:2]
            assert set(fastest_two) <= {"googledrive", "wuala", "clouddrive"}
            assert completion["skydrive"][workload] == max(c[workload] for c in completion.values())

    def test_skydrive_needs_seconds_for_1mb_google_a_fraction(self, performance):
        completion = performance.figure_series("completion")
        assert completion["skydrive"]["1x1MB"] > 3.0
        assert completion["googledrive"]["1x1MB"] < 1.0

    def test_startup_ordering(self, performance):
        startup = performance.figure_series("startup")
        # Dropbox is the fastest service to start synchronizing single files.
        for workload in ("1x100kB", "1x1MB"):
            assert startup["dropbox"][workload] == min(s[workload] for s in startup.values())
        # SkyDrive is by far the slowest: at least 9 s, more than 20 s for 100 files.
        assert all(startup["skydrive"][w] >= 9.0 for w in startup["skydrive"])
        assert startup["skydrive"]["100x10kB"] > 20.0
        # Wuala roughly doubles its start-up time for the 100-file batch.
        assert startup["wuala"]["100x10kB"] > 1.7 * startup["wuala"]["1x100kB"]

    def test_overhead_ordering(self, performance):
        overhead = performance.figure_series("overhead")
        # Cloud Drive's overhead is in a league of its own for many small files.
        assert overhead["clouddrive"]["100x10kB"] > 3.5
        # Google Drive exchanges about twice the actual data size.
        assert 1.6 < overhead["googledrive"]["100x10kB"] < 2.6
        # Dropbox shows the highest overhead among the remaining services on small files.
        others = {"skydrive", "wuala", "googledrive"}
        assert overhead["dropbox"]["1x100kB"] > max(overhead[s]["1x100kB"] for s in others)
        # Overhead shrinks as files grow.
        for service in overhead:
            assert overhead[service]["1x1MB"] < overhead[service]["1x100kB"]

    def test_dropbox_effective_rate_around_1mbps_for_bundled_small_files(self, performance):
        rows = {(row["service"], row["workload"]): row for row in performance.rows()}
        throughput = rows[("dropbox", "100x10kB")]["throughput_mbps"]
        assert 0.4 < throughput < 2.0


class TestFigure3Findings:
    def test_connection_counts_and_durations(self):
        result = SynSeriesExperiment().run()
        googledrive = result.services["googledrive"]
        clouddrive = result.services["clouddrive"]
        assert googledrive.total_connections == 100
        assert clouddrive.total_connections == 400
        # ~55 s against ~30 s in the paper (§4.2).
        assert clouddrive.completion_time > 1.5 * googledrive.completion_time
        assert 15 < googledrive.completion_time < 60
        assert 40 < clouddrive.completion_time < 120


class TestFigure1Findings:
    @pytest.fixture(scope="class")
    def idle(self):
        return IdleExperiment(duration=minutes(16)).run()

    def test_clouddrive_background_traffic_is_kilobits_per_second(self, idle):
        clouddrive = idle.services["clouddrive"]
        assert 3_000 < clouddrive.background_rate_bps < 12_000
        assert clouddrive.daily_volume_bytes > 30e6

    def test_other_services_stay_below_a_few_hundred_bps(self, idle):
        for service in ("dropbox", "skydrive", "wuala", "googledrive"):
            assert idle.services[service].background_rate_bps < 300

    def test_skydrive_login_is_about_four_times_heavier(self, idle):
        skydrive = idle.services["skydrive"].login_bytes
        others = [idle.services[s].login_bytes for s in ("dropbox", "wuala", "googledrive")]
        assert all(skydrive > 2.5 * other for other in others)


def _variant(name, base, edit):
    """The built-in spec ``base`` under a new ``name``, with ``edit`` applied to its dict."""
    document = builtin_spec(base).to_dict()
    document["name"] = document["display_name"] = name
    edit(document)
    return ServiceSpec.from_dict(document)


#: Ablation variant -> (the built-in it starts from, its one-field edit).
ABLATIONS = {
    "dropbox-nobundle": ("dropbox", lambda spec: spec["capabilities"].update(bundling=False)),
    "googledrive-bundled": ("googledrive", lambda spec: spec["capabilities"].update(bundling=True)),
    "dropbox-nocompress": ("dropbox", lambda spec: spec["capabilities"].update(compression="never")),
    "dropbox-smart": ("dropbox", lambda spec: spec["capabilities"].update(compression="smart")),
    # Dropbox's storage moved next to the testbed, into Wuala's Nuremberg site.
    "dropbox-eu": (
        "dropbox",
        lambda spec: spec["storage_servers"][0].update(datacenter={"provider": "wuala", "site": "wuala-nuremberg-1"}),
    ),
    # Cloud Drive's 15 s polling over one persistent channel.
    "clouddrive-persistent": (
        "clouddrive",
        lambda spec: spec["polling"].update(new_connection_per_poll=False, request_bytes=300, response_bytes=400),
    ),
}


class TestDesignChoiceAblations:
    """The paper's design-choice arguments, each checked by changing one field of a built-in spec."""

    @pytest.fixture(scope="class", autouse=True)
    def variants(self):
        with temporary_services():
            for name, (base, edit) in ABLATIONS.items():
                register_service_spec(_variant(name, base, edit))
            yield

    @pytest.fixture(scope="class")
    def bundling(self):
        """100 x 10 kB completion times with bundling switched off and on."""
        workload = workload_by_name("100x10kB")
        result = PerformanceExperiment(
            services=["dropbox", "dropbox-nobundle", "googledrive", "googledrive-bundled"],
            workloads=[workload],
            repetitions=2,
            pause_between_runs=10.0,
        ).run()
        return {service: values[workload.name] for service, values in result.figure_series("completion").items()}

    def test_bundling_buys_dropbox_its_small_file_win(self, bundling):
        # §4.2, §5.2: the x4 win on 100 x 10 kB is mostly bundling's.
        assert bundling["dropbox-nobundle"] > 1.5 * bundling["dropbox"]

    def test_bundling_removes_googledrive_per_file_penalty(self, bundling):
        # §4.2, §5.2: bundled, Google Drive reuses one connection instead of
        # paying a TCP/SSL handshake per file.
        assert bundling["googledrive-bundled"] < 0.5 * bundling["googledrive"]

    def test_compression_policy_per_content_class(self):
        # §4.5: compressing everything wastes work on already-compressed
        # content, compressing nothing wastes bandwidth on text.  Uploaded
        # volume relative to the file size, at 200 kB.
        size = 200_000
        services = ["dropbox", "dropbox-nocompress", "dropbox-smart"]
        result = CompressionExperiment(services, sizes=[size]).run()

        def uploaded(service, kind):
            return dict(result.series(kind)[service])[size] / (size / 1e6)

        # Text: any compressing policy beats "never".
        assert uploaded("dropbox", FileKind.TEXT) < 0.5 * uploaded("dropbox-nocompress", FileKind.TEXT)
        assert uploaded("dropbox-smart", FileKind.TEXT) < 0.5 * uploaded("dropbox-nocompress", FileKind.TEXT)
        # Fake JPEGs (text inside): only "smart" trusts the signature and
        # skips them; "always" still shrinks them (Fig. 5c).
        assert uploaded("dropbox-smart", FileKind.FAKE_JPEG) > 0.9
        assert uploaded("dropbox", FileKind.FAKE_JPEG) < 0.5
        # Random bytes: the policy is irrelevant, nothing shrinks.
        for service in services:
            assert uploaded(service, FileKind.BINARY) > 0.9, service

    def test_placement_dominates_single_files_not_batches(self):
        # §5.2, §6: for one file the distance to the data center dominates;
        # for many small files the client's per-file costs do.
        result = PerformanceExperiment(
            services=["dropbox", "dropbox-eu"],
            workloads=[workload_by_name("1x1MB"), workload_by_name("100x10kB")],
            repetitions=2,
            pause_between_runs=10.0,
        ).run()
        completion = result.figure_series("completion")
        single_gain = completion["dropbox"]["1x1MB"] / completion["dropbox-eu"]["1x1MB"]
        batch_gain = completion["dropbox"]["100x10kB"] / completion["dropbox-eu"]["100x10kB"]
        assert single_gain > 1.15
        assert batch_gain < single_gain

    def test_persistent_poll_channel_cuts_the_idle_footprint(self):
        # §3.1: Cloud Drive's fresh HTTPS connection per 15 s poll is "a bad
        # implementation"; the same interval over one persistent channel
        # cuts the background traffic by more than an order of magnitude.
        result = IdleExperiment(["clouddrive", "clouddrive-persistent"], duration=minutes(16)).run()
        wasteful = result.services["clouddrive"]
        fixed = result.services["clouddrive-persistent"]
        assert wasteful.background_rate_bps > 8 * fixed.background_rate_bps
        assert fixed.connections_opened < wasteful.connections_opened / 10
