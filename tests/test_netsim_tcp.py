"""Tests for the TCP/TLS connection model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ConnectionStateError
from repro.netsim.link import NetworkPath
from repro.netsim.packet import MSS, TCPFlags
from repro.netsim.simulator import NetworkSimulator
from repro.capture.sniffer import Sniffer
from repro.units import mbps


def open_connection(simulator, endpoint, path, tls=None):
    return simulator.open_connection(endpoint, path, tls=tls)


class TestNetworkPath:
    def test_rejects_negative_rtt(self):
        with pytest.raises(ConfigurationError):
            NetworkPath(rtt=-1.0)

    @pytest.mark.parametrize("direction", ["uplink_bps", "downlink_bps"])
    def test_rejects_non_positive_rates(self, direction):
        with pytest.raises(ConfigurationError):
            NetworkPath(rtt=0.01, **{direction: 0})

    def test_rejects_negative_server_processing(self):
        with pytest.raises(ConfigurationError):
            NetworkPath(rtt=0.01, server_processing=-0.001)

    def test_rate_picks_the_direction(self):
        path = NetworkPath(rtt=0.01, uplink_bps=mbps(8), downlink_bps=mbps(80))
        assert path.rate(upstream=True) == mbps(8)
        assert path.rate(upstream=False) == mbps(80)

    def test_adjusted_replaces_only_the_given_fields(self):
        path = NetworkPath(rtt=0.1, uplink_bps=mbps(10), downlink_bps=mbps(20), server_processing=0.03)
        adjusted = path.adjusted(rtt=0.05, downlink_bps=mbps(5))
        assert adjusted == NetworkPath(rtt=0.05, uplink_bps=mbps(10), downlink_bps=mbps(5), server_processing=0.03)
        assert path.adjusted() == path
        assert path.rtt == 0.1  # frozen: the original is untouched


class TestHandshakes:
    def test_tcp_handshake_takes_one_rtt(self, simulator, server_endpoint, fast_path):
        start = simulator.now
        open_connection(simulator, server_endpoint, fast_path)
        assert simulator.now - start == pytest.approx(fast_path.rtt)

    def test_tcp_handshake_emits_syn_synack_ack(self, simulator, sniffer, server_endpoint, fast_path):
        open_connection(simulator, server_endpoint, fast_path)
        flags = [packet.flags for packet in sniffer.trace]
        assert TCPFlags.SYN in flags
        assert (TCPFlags.SYN | TCPFlags.ACK) in flags

    def test_tls_handshake_adds_rtts_and_bytes(self, simulator, sniffer, server_endpoint, fast_path, tls):
        start = simulator.now
        open_connection(simulator, server_endpoint, fast_path, tls=tls)
        elapsed = simulator.now - start
        # 1 RTT TCP + 2 RTT TLS + compute delay.
        assert elapsed == pytest.approx(3 * fast_path.rtt + tls.compute_delay, rel=0.01)
        handshake_bytes = sum(p.payload_len for p in sniffer.trace if p.note.startswith("tls-"))
        assert handshake_bytes == tls.handshake_total_bytes

    def test_resumed_tls_is_cheaper(self, tls):
        resumed = tls.resumed()
        assert resumed.handshake_rtts < tls.handshake_rtts
        assert resumed.handshake_total_bytes < tls.handshake_total_bytes


class TestDataTransfer:
    def test_send_requires_established_connection(self, simulator, server_endpoint, fast_path):
        connection = simulator.open_connection(server_endpoint, fast_path, handshake=False)
        with pytest.raises(ConnectionStateError):
            connection.send(1000)

    def test_send_zero_bytes_is_instant(self, simulator, server_endpoint, fast_path):
        connection = open_connection(simulator, server_endpoint, fast_path)
        stats = connection.send(0)
        assert stats.duration == 0.0

    def test_large_transfer_duration_close_to_serialization(self, simulator, server_endpoint, fast_path):
        connection = open_connection(simulator, server_endpoint, fast_path)
        nbytes = 10_000_000
        stats = connection.send(nbytes)
        serialization = nbytes * 8 / fast_path.uplink_bps
        assert stats.duration >= serialization
        assert stats.duration <= serialization * 1.2

    def test_small_transfer_has_no_slow_start_penalty(self, simulator, server_endpoint, slow_path):
        connection = open_connection(simulator, server_endpoint, slow_path)
        stats = connection.send(5000)
        assert stats.duration == pytest.approx(5000 * 8 / slow_path.uplink_bps)

    def test_slow_start_penalty_grows_with_rtt(self, simulator, server_endpoint):
        fast = NetworkPath(rtt=0.01, uplink_bps=mbps(10))
        slow = NetworkPath(rtt=0.2, uplink_bps=mbps(10))
        fast_conn = open_connection(simulator, server_endpoint, fast)
        slow_conn = open_connection(simulator, server_endpoint, slow)
        assert slow_conn.transfer_duration(500_000) > fast_conn.transfer_duration(500_000)

    def test_payload_bytes_conserved_in_trace(self, simulator, sniffer, server_endpoint, fast_path):
        connection = open_connection(simulator, server_endpoint, fast_path)
        sniffer.reset()
        connection.send(123_456)
        assert sniffer.trace.uploaded_payload_bytes() == 123_456

    def test_tls_adds_record_overhead_to_wire_payload(self, simulator, sniffer, server_endpoint, fast_path, tls):
        connection = open_connection(simulator, server_endpoint, fast_path, tls=tls)
        sniffer.reset()
        connection.send(100_000)
        uploaded = sniffer.trace.uploaded_payload_bytes()
        assert uploaded > 100_000
        assert uploaded == tls.record_bytes(100_000)

    def test_header_overhead_accounted(self, simulator, sniffer, server_endpoint, fast_path):
        connection = open_connection(simulator, server_endpoint, fast_path)
        sniffer.reset()
        connection.send(MSS * 10)
        header_bytes = sum(p.headers_len for p in sniffer.trace.outgoing())
        assert header_bytes >= 10 * 40

    def test_request_includes_rtt_and_processing(self, simulator, server_endpoint, fast_path):
        connection = open_connection(simulator, server_endpoint, fast_path)
        stats = connection.request(1000, 2000)
        assert stats.duration >= fast_path.rtt + fast_path.server_processing
        assert stats.app_bytes_up == 1000
        assert stats.app_bytes_down == 2000

    def test_download_direction_uses_downlink(self, simulator, server_endpoint):
        path = NetworkPath(rtt=0.01, uplink_bps=mbps(1), downlink_bps=mbps(100))
        connection = open_connection(simulator, server_endpoint, path)
        up = connection.transfer_duration(1_000_000, upstream=True)
        down = connection.transfer_duration(1_000_000, upstream=False)
        assert up > down


class TestClose:
    def test_close_emits_fin_and_disables_connection(self, simulator, sniffer, server_endpoint, fast_path):
        connection = open_connection(simulator, server_endpoint, fast_path)
        connection.close()
        assert not connection.is_open
        assert any(packet.flags & TCPFlags.FIN for packet in sniffer.trace)
        with pytest.raises(ConnectionStateError):
            connection.send(10)

    def test_close_does_not_advance_clock(self, simulator, server_endpoint, fast_path):
        connection = open_connection(simulator, server_endpoint, fast_path)
        before = simulator.now
        connection.close()
        assert simulator.now == before

    def test_double_close_is_harmless(self, simulator, server_endpoint, fast_path):
        connection = open_connection(simulator, server_endpoint, fast_path)
        connection.close()
        connection.close()
        assert not connection.is_open

    def test_connect_twice_raises(self, simulator, server_endpoint, fast_path):
        connection = open_connection(simulator, server_endpoint, fast_path)
        with pytest.raises(ConnectionStateError):
            connection.connect()
