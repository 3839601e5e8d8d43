"""Tests for the simulator facade and the HTTP layer."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionStateError, SimulationError
from repro.netsim.http import HTTPChannel, HTTPExchange
from repro.netsim.simulator import NetworkSimulator
from repro.capture.sniffer import Sniffer


class TestScheduling:
    def test_schedule_in_fires_at_right_time(self, simulator):
        fired = []
        simulator.schedule_in(5.0, lambda: fired.append(simulator.now))
        simulator.run_until(10.0)
        assert fired == [pytest.approx(5.0)]
        assert simulator.now == 10.0

    def test_schedule_in_rejects_negative_delay(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule_in(-1.0, lambda: None)

    def test_run_until_rejects_backwards(self, simulator):
        simulator.run_for(5.0)
        with pytest.raises(SimulationError):
            simulator.run_until(1.0)

    def test_recurring_events_via_rescheduling(self, simulator):
        fired = []

        def poll():
            fired.append(simulator.now)
            if len(fired) < 4:
                simulator.schedule_in(10.0, poll)

        simulator.schedule_in(10.0, poll)
        simulator.run_for(60.0)
        assert fired == [pytest.approx(10.0), pytest.approx(20.0), pytest.approx(30.0), pytest.approx(40.0)]

    def test_event_callbacks_may_perform_network_operations(self, simulator, server_endpoint, fast_path):
        opened = []
        simulator.schedule_in(2.0, lambda: opened.append(simulator.open_connection(server_endpoint, fast_path)))
        simulator.run_for(5.0)
        assert len(opened) == 1
        assert opened[0].is_open

    def test_cancelled_event_does_not_fire(self, simulator):
        fired = []
        event = simulator.schedule_in(1.0, lambda: fired.append(1))
        event.cancel()
        simulator.run_for(5.0)
        assert fired == []

    def test_zero_delay_event_fires_at_the_current_time(self, simulator):
        simulator.run_for(3.0)
        fired = []
        simulator.schedule_in(0.0, lambda: fired.append(simulator.now))
        simulator.run_for(0.0)
        assert fired == [pytest.approx(3.0)]

    def test_events_beyond_the_horizon_stay_pending(self, simulator):
        fired = []
        simulator.schedule_in(20.0, lambda: fired.append(simulator.now))
        simulator.run_until(10.0)
        assert fired == [] and len(simulator.events) == 1
        simulator.run_until(30.0)
        assert fired == [pytest.approx(20.0)]

    def test_time_spent_inside_a_callback_delays_later_events(self, simulator):
        # A callback that advances time (e.g. a network operation) does not
        # dispatch other events re-entrantly: an event that fell due meanwhile
        # fires after it returns, at the clock the callback left behind.
        fired = []

        def busy():
            fired.append(("busy", simulator.now))
            simulator.run_for(5.0)

        simulator.schedule_in(1.0, busy)
        simulator.schedule_in(3.0, lambda: fired.append(("due", simulator.now)))
        simulator.run_until(10.0)
        assert fired == [("busy", pytest.approx(1.0)), ("due", pytest.approx(6.0))]
        assert simulator.now == 10.0


class TestSniffers:
    def test_multiple_sniffers_receive_packets(self, simulator, server_endpoint, fast_path):
        first = Sniffer(simulator)
        second = Sniffer(simulator)
        simulator.open_connection(server_endpoint, fast_path)
        assert len(first.trace) == len(second.trace) > 0

    def test_late_sniffer_sees_only_later_packets(self, simulator, server_endpoint, fast_path):
        early = Sniffer(simulator)
        first = simulator.open_connection(server_endpoint, fast_path)
        late = Sniffer(simulator)
        second = simulator.open_connection(server_endpoint, fast_path)
        assert {packet.connection_id for packet in early.trace} == {first.connection_id, second.connection_id}
        assert {packet.connection_id for packet in late.trace} == {second.connection_id}

    def test_plain_callable_receives_the_same_packets(self, simulator, server_endpoint, fast_path):
        sniffer = Sniffer(simulator)
        received = []
        simulator.add_sniffer(received.append)
        connection = simulator.open_connection(server_endpoint, fast_path)
        connection.send(50_000)
        connection.close()

        def rows(packets):
            return sorted((p.timestamp, p.flags.value, p.payload_len, p.direction.value) for p in packets)

        assert len(received) == len(sniffer.trace) > 0
        assert rows(received) == rows(sniffer.trace)

    def test_path_warp_rewrites_every_new_connection(self, simulator, server_endpoint, fast_path):
        seen = []

        def warp(path, hostname):
            seen.append(hostname)
            return path.adjusted(rtt=path.rtt * 10)

        simulator.path_warp = warp
        start = simulator.now
        connection = simulator.open_connection(server_endpoint, fast_path)
        assert seen == [server_endpoint.hostname]
        assert connection.path.rtt == pytest.approx(fast_path.rtt * 10)
        assert simulator.now - start == pytest.approx(fast_path.rtt * 10)

    def test_connection_ids_are_unique(self, simulator, server_endpoint, fast_path):
        first = simulator.open_connection(server_endpoint, fast_path)
        second = simulator.open_connection(server_endpoint, fast_path)
        assert first.connection_id != second.connection_id
        assert first.local_port != second.local_port


class TestHTTPLayer:
    def test_exchange_byte_accounting(self):
        exchange = HTTPExchange(request_body=1000, response_body=500)
        assert exchange.request_bytes == 1000 + exchange.request_headers
        assert exchange.response_bytes == 500 + exchange.response_headers

    def test_channel_post_moves_expected_bytes(self, simulator, server_endpoint, fast_path):
        sniffer = Sniffer(simulator)
        channel = HTTPChannel(simulator.open_connection(server_endpoint, fast_path))
        sniffer.reset()
        channel.post(10_000, 2_000)
        assert sniffer.trace.uploaded_payload_bytes() > 10_000
        assert sniffer.trace.downloaded_payload_bytes() > 2_000
        assert channel.exchanges == 1

    def test_channel_get_counts_as_exchange(self, simulator, server_endpoint, fast_path):
        channel = HTTPChannel(simulator.open_connection(server_endpoint, fast_path))
        channel.get(5_000)
        assert channel.exchanges == 1

    def test_channel_on_closed_connection_raises(self, simulator, server_endpoint, fast_path):
        channel = HTTPChannel(simulator.open_connection(server_endpoint, fast_path))
        channel.close()
        with pytest.raises(ConnectionStateError):
            channel.post(100, 100)

    def test_client_endpoint_is_consistent(self):
        simulator = NetworkSimulator()
        assert simulator.client.hostname == "test-computer.local"
