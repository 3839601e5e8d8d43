"""Tests for the trace-analysis measurement primitives."""

from __future__ import annotations

import pytest

from repro.capture import analysis
from repro.capture.sniffer import Sniffer
from repro.capture.trace import PacketTrace
from repro.errors import CaptureError
from repro.netsim.packet import Packet, PacketDirection, TCPFlags


def packet(timestamp, *, direction=PacketDirection.OUT, payload=0, hostname="storage.example", flags=TCPFlags.ACK):
    src, dst = ("203.0.113.10", "192.0.2.10") if direction is PacketDirection.OUT else ("192.0.2.10", "203.0.113.10")
    return Packet(
        timestamp=timestamp,
        src=src,
        dst=dst,
        src_port=50_000,
        dst_port=443,
        direction=direction,
        flags=flags,
        payload_len=payload,
        hostname=hostname,
    )


class TestSynCounting:
    def test_counts_only_client_syns(self):
        trace = PacketTrace(
            [
                packet(1.0, flags=TCPFlags.SYN),
                packet(1.1, direction=PacketDirection.IN, flags=TCPFlags.SYN | TCPFlags.ACK),
                packet(2.0, flags=TCPFlags.SYN),
            ]
        )
        assert analysis.count_tcp_syns(trace) == 2
        assert analysis.count_tcp_connections(trace) == 2

    def test_syn_time_series_is_cumulative_and_relative(self):
        trace = PacketTrace([packet(10.0, flags=TCPFlags.SYN), packet(12.0, flags=TCPFlags.SYN)])
        series = analysis.syn_time_series(trace)
        assert series == [(pytest.approx(0.0), 1), (pytest.approx(2.0), 2)]

    def test_real_connections_counted(self, simulator, server_endpoint, fast_path):
        sniffer = Sniffer(simulator)
        for _ in range(5):
            simulator.open_connection(server_endpoint, fast_path)
        assert analysis.count_tcp_connections(sniffer.trace) == 5


class TestCumulativeBytes:
    def test_series_monotonic_and_complete(self):
        trace = PacketTrace([packet(0.0, payload=100), packet(25.0, payload=200), packet(55.0, payload=300)])
        series = analysis.cumulative_bytes_series(trace, interval=10.0, duration=60.0)
        times = [time for time, _ in series]
        values = [value for _, value in series]
        assert times[0] == 0.0 and times[-1] == 60.0
        assert values == sorted(values)
        assert values[-1] == trace.total_bytes()

    def test_rejects_bad_interval(self):
        with pytest.raises(CaptureError):
            analysis.cumulative_bytes_series(PacketTrace(), interval=0)


class TestBursts:
    def test_burst_counting_with_gaps(self):
        trace = PacketTrace(
            [packet(0.0, payload=100), packet(0.01, payload=100), packet(1.0, payload=100), packet(2.0, payload=100)]
        )
        assert analysis.count_application_bursts(trace, gap=0.1) == 3

    def test_burst_sizes(self):
        trace = PacketTrace(
            [packet(0.0, payload=100), packet(0.01, payload=150), packet(1.0, payload=300)]
        )
        assert analysis.burst_payload_sizes(trace, gap=0.1) == [250, 300]

    def test_empty_trace_has_no_bursts(self):
        assert analysis.count_application_bursts(PacketTrace(), gap=0.1) == 0
        assert analysis.burst_payload_sizes(PacketTrace(), gap=0.1) == []

    def test_incoming_payload_does_not_count_as_burst(self):
        trace = PacketTrace([packet(0.0, payload=100, direction=PacketDirection.IN)])
        assert analysis.count_application_bursts(trace, gap=0.1) == 0


class TestPaperMetrics:
    def test_startup_time_uses_first_outgoing_storage_payload(self):
        trace = PacketTrace(
            [
                packet(0.5, payload=100, hostname="control.example"),
                packet(2.0, payload=0, hostname="storage.example", direction=PacketDirection.IN),
                packet(3.0, payload=400, hostname="storage.example"),
            ]
        )
        assert analysis.startup_time(trace, 1.0, ["storage.example"]) == pytest.approx(2.0)

    def test_startup_time_raises_without_storage_flow(self):
        trace = PacketTrace([packet(0.5, payload=100, hostname="control.example")])
        with pytest.raises(CaptureError):
            analysis.startup_time(trace, 0.0, ["storage.example"])

    def test_completion_time_first_to_last_payload(self):
        trace = PacketTrace(
            [
                packet(1.0, payload=100, hostname="storage.example"),
                packet(5.0, payload=100, hostname="storage.example"),
                packet(9.0, payload=0, hostname="storage.example", flags=TCPFlags.FIN),
            ]
        )
        assert analysis.completion_time(trace, ["storage.example"]) == pytest.approx(4.0)

    def test_completion_ignores_control_traffic(self):
        trace = PacketTrace(
            [
                packet(1.0, payload=100, hostname="storage.example"),
                packet(2.0, payload=100, hostname="storage.example"),
                packet(50.0, payload=100, hostname="control.example"),
            ]
        )
        assert analysis.completion_time(trace, ["storage.example"]) == pytest.approx(1.0)

    def test_overhead_fraction(self):
        trace = PacketTrace([packet(1.0, payload=1460)])
        fraction = analysis.overhead_fraction(trace, 1000)
        assert fraction == pytest.approx((1460 + 40) / 1000)
        with pytest.raises(CaptureError):
            analysis.overhead_fraction(trace, 0)

    def test_upload_throughput(self):
        trace = PacketTrace([packet(0.0, payload=500_000, hostname="storage.example"), packet(4.0, payload=500_000, hostname="storage.example")])
        assert analysis.upload_throughput_bps(trace, ["storage.example"]) == pytest.approx(2_000_000)

    def test_completion_time_after_skips_earlier_payload(self):
        # The window start of one experiment hides the previous experiment's
        # storage traffic from its completion time.
        trace = PacketTrace(
            [
                packet(1.0, payload=100, hostname="storage.example"),
                packet(10.0, payload=100, hostname="storage.example"),
                packet(12.5, payload=100, hostname="storage.example"),
            ]
        )
        assert analysis.completion_time(trace, ["storage.example"]) == pytest.approx(11.5)
        assert analysis.completion_time(trace, ["storage.example"], after=5.0) == pytest.approx(2.5)

    def test_completion_time_raises_without_storage_payload(self):
        trace = PacketTrace(
            [
                packet(1.0, payload=0, hostname="storage.example", flags=TCPFlags.SYN),
                packet(2.0, payload=100, hostname="control.example"),
            ]
        )
        with pytest.raises(CaptureError):
            analysis.completion_time(trace, ["storage.example"])

    def test_overhead_fraction_after_drops_earlier_traffic(self):
        trace = PacketTrace([packet(1.0, payload=960), packet(3.0, payload=1960)])
        assert analysis.overhead_fraction(trace, 1000) == pytest.approx((1000 + 2000) / 1000)
        assert analysis.overhead_fraction(trace, 1000, after=2.0) == pytest.approx(2000 / 1000)

    def test_upload_throughput_counts_only_outgoing_payload(self):
        # Downloaded payload stretches the storage span but adds no upload bytes.
        trace = PacketTrace(
            [
                packet(0.0, payload=500_000),
                packet(4.0, payload=100_000, direction=PacketDirection.IN),
                packet(1.0, payload=200, hostname="control.example"),
            ]
        )
        assert analysis.upload_throughput_bps(trace, ["storage.example"]) == pytest.approx(1_000_000)

    def test_upload_throughput_is_zero_without_a_span(self):
        trace = PacketTrace([packet(2.0, payload=500_000)])
        assert analysis.upload_throughput_bps(trace, ["storage.example"]) == 0.0
        assert analysis.upload_throughput_bps(PacketTrace(), ["storage.example"]) == 0.0
