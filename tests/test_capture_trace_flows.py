"""Tests for packet traces and the sniffer."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.capture.sniffer import Sniffer
from repro.capture.trace import PacketTrace, _first_record_after, _first_record_at_or_after
from repro.netsim.endpoint import Endpoint
from repro.netsim.link import NetworkPath
from repro.netsim.packet import Packet, PacketDirection, TCPFlags
from repro.netsim.simulator import NetworkSimulator
from repro.netsim.tcp import set_flow_elision
from repro.units import mbps


def make_packet(timestamp, direction=PacketDirection.OUT, payload=0, hostname="server.example.com", connection_id=1, flags=TCPFlags.ACK):
    src, dst = ("203.0.113.10", "192.0.2.10") if direction is PacketDirection.OUT else ("192.0.2.10", "203.0.113.10")
    sport, dport = (50_000, 443) if direction is PacketDirection.OUT else (443, 50_000)
    return Packet(
        timestamp=timestamp,
        src=src,
        dst=dst,
        src_port=sport,
        dst_port=dport,
        direction=direction,
        flags=flags,
        payload_len=payload,
        connection_id=connection_id,
        hostname=hostname,
    )


class TestPacketTrace:
    def test_packets_sorted_by_timestamp(self):
        trace = PacketTrace([make_packet(2.0), make_packet(1.0), make_packet(3.0)])
        assert [packet.timestamp for packet in trace] == [1.0, 2.0, 3.0]
        assert trace[0].timestamp == 1.0 and trace[-1].timestamp == 3.0
        assert [packet.timestamp for packet in trace[1:]] == [2.0, 3.0]

    def test_filters(self):
        trace = PacketTrace(
            [
                make_packet(1.0, payload=100, hostname="a.example"),
                make_packet(2.0, payload=0, hostname="b.example"),
                make_packet(3.0, direction=PacketDirection.IN, payload=50, hostname="a.example"),
            ]
        )
        assert len(trace.to_hosts(["a.example"])) == 2
        assert len(trace.to_hosts(["b.example", "a.example", "unknown.example"])) == 3
        assert len(trace.payload_packets()) == 2
        assert len(trace.outgoing()) == 2
        assert len(trace.incoming()) == 1
        assert len(trace.between(1.5, 2.5)) == 1
        assert len(trace.after(2.0)) == 2

    def test_aggregates(self):
        trace = PacketTrace(
            [
                make_packet(1.0, payload=100),
                make_packet(2.0, direction=PacketDirection.IN, payload=40),
            ]
        )
        assert trace.uploaded_payload_bytes() == 100
        assert trace.downloaded_payload_bytes() == 40
        assert trace.payload_bytes() == 140
        assert trace.total_bytes() == 140 + 2 * 40
        assert trace.duration() == pytest.approx(1.0)

    def test_empty_trace_properties(self):
        trace = PacketTrace()
        assert trace.is_empty()
        assert trace.first_timestamp() is None
        assert trace.last_timestamp() is None
        assert trace.duration() == 0.0
        assert trace.total_bytes() == 0

    def test_for_connection_selects_one_connection(self):
        trace = PacketTrace(
            [
                make_packet(1.0, payload=10, connection_id=1),
                make_packet(2.0, payload=20, connection_id=7),
                make_packet(3.0, payload=30, connection_id=1),
            ]
        )
        assert [packet.payload_len for packet in trace.for_connection(1)] == [10, 30]
        assert trace.for_connection(7).payload_bytes() == 20
        assert trace.for_connection(99).is_empty()



class TestSniffer:
    def test_reset_drops_trace(self, simulator, server_endpoint, fast_path):
        sniffer = Sniffer(simulator)
        simulator.open_connection(server_endpoint, fast_path)
        sniffer.reset()
        assert sniffer.trace.is_empty()
        simulator.open_connection(server_endpoint, fast_path)
        assert not sniffer.trace.is_empty()

    def test_call_records_one_packet(self):
        sniffer = Sniffer()
        sniffer(make_packet(2.0, payload=5))
        sniffer(make_packet(1.0, payload=7))
        assert len(sniffer.trace) == 2
        assert sniffer.trace.first_timestamp() == 1.0
        assert sniffer.trace.payload_bytes() == 12

    def test_unattached_sniffer_captures_nothing(self, simulator, server_endpoint, fast_path):
        attached = Sniffer(simulator)
        detached = Sniffer()
        simulator.open_connection(server_endpoint, fast_path)
        assert not attached.trace.is_empty()
        assert detached.trace.is_empty()


# --------------------------------------------------------------------------- #
# Window oracle: the row-by-row window filter that copying runs by slice
# replaced.  No runtime path calls it; the tests below hold
# ``PacketTrace.between``/``after`` to it on elided traces.
# --------------------------------------------------------------------------- #
def _copy_row(source, trace, pos):
    """Append row ``pos`` of ``source`` to ``trace`` unchanged."""
    trace._ts.append(source._ts[pos])
    trace._payload.append(source._payload[pos])
    trace._hlen.append(source._hlen[pos])
    trace._hdr.append(source._hdr[pos])
    segment = source._seg[pos]
    trace._seg.append(segment)
    trace._ord.append(source._ord[pos])
    if segment is not None:
        trace._segn += 1
        trace._seg_extra += segment.record_count - 1


def oracle_window(source, start, end):
    """Rows of ``source`` whose packets fall in ``[start, end]``, visited one by one."""
    source._ensure_sorted()
    lo = bisect_left(source._ts, start)
    hi = bisect_right(source._ts, end)
    if source._segn == 0:
        return source._slice(lo, hi)
    trace = source._blank()
    straddled = False
    for pos in range(lo):
        segment = source._seg[pos]
        if segment is None or segment.last_timestamp < start:
            continue
        first = _first_record_at_or_after(segment, start)
        last = _first_record_after(segment, end)
        if last <= first:
            continue
        shift = first - segment.first_record
        trace._append_segment(segment.subrange(first, last), source._ord[pos] + shift)
        straddled = True
    for pos in range(lo, hi):
        segment = source._seg[pos]
        if segment is None or segment.last_timestamp <= end:
            _copy_row(source, trace, pos)
            continue
        last = _first_record_after(segment, end)
        if last <= segment.first_record:
            continue
        trace._append_segment(segment.subrange(segment.first_record, last), source._ord[pos])
    trace._sorted = not straddled
    return trace


def capture_transfers(transfers, rtt=0.02):
    """An elided capture of request/response transfers on one connection.

    Each transfer is ``(up_bytes, down_bytes, back_to_back)``.  A
    back-to-back transfer sends the response right after the request, so
    the request's ACK aggregate, stamped half an RTT after its burst, is
    captured ahead of response records stamped before it: the capture is
    out of timestamp order.
    """
    path = NetworkPath(rtt=rtt, uplink_bps=mbps(50), downlink_bps=mbps(100))
    previous = set_flow_elision(True)
    try:
        simulator = NetworkSimulator()
        sniffer = Sniffer(simulator)
        connection = simulator.open_connection(Endpoint("h.example", "192.0.2.5", 443), path)
        for up_bytes, down_bytes, back_to_back in transfers:
            if back_to_back:
                connection.send(up_bytes, upstream=True)
                connection.send(down_bytes, upstream=False)
            else:
                connection.request(up_bytes, down_bytes)
        connection.close()
    finally:
        set_flow_elision(previous)
    return sniffer.trace


@st.composite
def window_edge(draw, trace):
    """A timestamp mid-segment, on a segment boundary or on a plain row of ``trace``."""
    trace._ensure_sorted()
    segments = [segment for segment in trace._seg if segment is not None]
    kind = draw(st.sampled_from(("mid-segment", "segment-boundary", "plain-row")))
    if kind == "plain-row":
        return draw(st.sampled_from([ts for ts, segment in zip(trace._ts, trace._seg) if segment is None]))
    segment = draw(st.sampled_from(segments))
    if kind == "segment-boundary":
        return draw(st.sampled_from((segment.first_timestamp, segment.last_timestamp)))
    index = draw(st.integers(segment.first_record, segment.last_record - 2))
    here, following = segment.record_timestamp(index), segment.record_timestamp(index + 1)
    return draw(st.sampled_from((here, (here + following) / 2)))


def assert_matches_oracle(window, oracle):
    """``window`` equals ``oracle`` without expanding either, then expanded."""
    assert len(window) == len(oracle)
    # A window that expanded its segments would be correct but slow.
    assert window.has_segments() == oracle.has_segments()
    assert window.segment_columns() == oracle.segment_columns()
    assert window.sorted_columns() == oracle.sorted_columns()


class TestWindowMatchesOracle:
    transfers = st.lists(
        st.tuples(
            st.integers(min_value=40_000, max_value=1_500_000),
            st.integers(min_value=1, max_value=400_000),
            st.booleans(),
        ),
        min_size=2,
        max_size=5,
    )

    def test_back_to_back_capture_is_unsorted_and_elided(self):
        trace = capture_transfers([(200_000, 150_000, True), (60_000, 2_000, True)])
        assert trace.has_segments()
        assert not trace._sorted

    @given(transfers=transfers, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_between_and_after_match_oracle(self, transfers, data):
        trace = capture_transfers(transfers)
        assert trace.has_segments()
        start, end = sorted((data.draw(window_edge(trace)), data.draw(window_edge(trace))))
        assert_matches_oracle(trace.between(start, end), oracle_window(trace, start, end))
        assert_matches_oracle(trace.after(start), oracle_window(trace, start, math.inf))
        assert_matches_oracle(trace.after(end), oracle_window(trace, end, math.inf))
        # Windows never expand the trace they are cut from.
        assert trace.has_segments()
