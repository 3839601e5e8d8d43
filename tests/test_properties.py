"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.capture import analysis
from repro.capture.trace import PacketTrace
from repro.netsim.link import NetworkPath
from repro.netsim.packet import Packet, PacketDirection, TCPFlags
from repro.services.backend import StorageBackend
from repro.sync.bundling import BundleBuilder, BundleEntry
from repro.sync.chunking import Chunk, FixedChunker, VariableChunker
from repro.sync.compression import CompressionPolicy, Compressor
from repro.sync.delta import DeltaCodec
from repro.units import mbps

# Keep generated payloads small: these properties are structural, not
# performance related.
payloads = st.binary(min_size=0, max_size=20_000)
small_payloads = st.binary(min_size=0, max_size=4_000)


class TestChunkingProperties:
    @given(data=payloads, chunk_size=st.integers(min_value=1, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_fixed_chunks_cover_input_exactly(self, data, chunk_size):
        chunks = FixedChunker(chunk_size).chunk(data)
        assert sum(chunk.length for chunk in chunks) == len(data)
        assert b"".join(data[c.offset:c.offset + c.length] for c in chunks) == data
        assert all(chunk.length <= chunk_size for chunk in chunks)

    @given(data=payloads)
    @settings(max_examples=30, deadline=None)
    def test_variable_chunks_cover_input_exactly(self, data):
        chunker = VariableChunker(min_size=512, average_size=2048, max_size=8192, page_size=256)
        chunks = chunker.chunk(data)
        assert sum(chunk.length for chunk in chunks) == len(data)
        offsets = [chunk.offset for chunk in chunks]
        assert offsets == sorted(offsets)

    @given(data=payloads, chunk_size=st.integers(min_value=64, max_value=4_096))
    @settings(max_examples=40, deadline=None)
    def test_chunk_digests_are_stable(self, data, chunk_size):
        first = FixedChunker(chunk_size).chunk(data)
        second = FixedChunker(chunk_size).chunk(data)
        assert [c.digest for c in first] == [c.digest for c in second]


class TestDeltaProperties:
    @given(old=small_payloads, new=small_payloads, block_size=st.integers(min_value=16, max_value=512))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_apply_delta_reconstructs_new_revision(self, old, new, block_size):
        codec = DeltaCodec(block_size=block_size)
        delta = codec.compute_delta(new, codec.compute_signature(old))
        assert codec.apply_delta(old, delta) == new

    @given(old=small_payloads, insertion=st.binary(min_size=0, max_size=256))
    @settings(max_examples=40, deadline=None)
    def test_delta_literal_bytes_never_exceed_new_size(self, old, insertion):
        codec = DeltaCodec(block_size=64)
        new = old + insertion
        delta = codec.compute_delta(new, codec.compute_signature(old))
        assert delta.literal_bytes <= len(new)


class TestCompressionProperties:
    @given(data=payloads, policy=st.sampled_from(list(CompressionPolicy)))
    @settings(max_examples=60, deadline=None)
    def test_transmitted_size_never_exceeds_original(self, data, policy):
        result = Compressor(policy).process(data)
        assert 0 <= result.transmitted_size <= len(data)
        assert result.ratio <= 1.0


class TestChunkStoreProperties:
    @given(blocks=st.lists(st.binary(min_size=0, max_size=64), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_store_keeps_each_distinct_chunk_once(self, blocks):
        backend = StorageBackend("property")
        seen = {}
        for block in blocks:
            chunk = Chunk.from_bytes(0, block)
            assert backend.store_chunk(chunk.digest, chunk.length) is (chunk.digest not in seen)
            seen[chunk.digest] = chunk.length
            assert backend.chunk_count() == len(seen)
            assert all(backend.has_chunk(digest) for digest in seen)
        assert backend.bytes_stored == sum(seen.values())
        assert backend.bytes_received == sum(len(block) for block in blocks)


class TestBundlingProperties:
    @given(sizes=st.lists(st.integers(min_value=0, max_value=50_000), max_size=60),
           limit=st.integers(min_value=1_000, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_bundles_preserve_total_payload_and_order(self, sizes, limit):
        builder = BundleBuilder(max_bundle_bytes=limit)
        bundles = builder.pack_sizes(sizes)
        assert sum(bundle.payload_size for bundle in bundles) == sum(sizes)
        flattened = [entry.payload_size for bundle in bundles for entry in bundle.entries]
        assert flattened == list(sizes)
        for bundle in bundles:
            assert len(bundle) >= 1
            assert bundle.payload_size <= max(limit, max(sizes or [0]))


class TestNetworkProperties:
    @given(nbytes=st.integers(min_value=1, max_value=5_000_000),
           rtt=st.floats(min_value=0.001, max_value=0.3),
           rate=st.floats(min_value=0.5, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_transfer_duration_at_least_serialization(self, nbytes, rtt, rate):
        from repro.netsim.simulator import NetworkSimulator
        from repro.netsim.endpoint import Endpoint

        path = NetworkPath(rtt=rtt, uplink_bps=mbps(rate), downlink_bps=mbps(rate))
        simulator = NetworkSimulator()
        connection = simulator.open_connection(Endpoint("h.example", "192.0.2.5"), path)
        duration = connection.transfer_duration(nbytes)
        serialization = nbytes * 8 / mbps(rate)
        assert duration >= serialization * 0.999
        # The ramp-up can never cost more than one RTT per doubling of the window.
        assert duration <= serialization + rtt * 40

    @given(payload_sizes=st.lists(st.integers(min_value=1, max_value=3_000), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_trace_byte_accounting_is_consistent(self, payload_sizes):
        packets = [
            Packet(
                timestamp=float(index),
                src="a", dst="b", src_port=1, dst_port=2,
                direction=PacketDirection.OUT if index % 2 == 0 else PacketDirection.IN,
                flags=TCPFlags.ACK,
                payload_len=size,
                hostname="h.example",
            )
            for index, size in enumerate(payload_sizes)
        ]
        trace = PacketTrace(packets)
        assert trace.payload_bytes() == sum(payload_sizes)
        assert trace.total_bytes() == sum(payload_sizes) + 40 * len(payload_sizes)
        assert trace.uploaded_payload_bytes() + trace.downloaded_payload_bytes() == trace.payload_bytes()
        series = analysis.cumulative_bytes_series(trace, interval=5.0)
        assert series[-1][1] == trace.total_bytes()


def _reference_slow_start_penalty(nbytes: int, rate: float, rtt: float) -> float:
    """The seed engine's byte-tracking loop, kept verbatim as the oracle.

    The closed-form :func:`repro.netsim.tcp.slow_start_penalty` must match
    this loop *bit for bit* (not approximately): the golden campaign
    documents pin output bytes, so even one ulp of drift would break the
    byte-identity contract.
    """
    from repro.netsim.tcp import INITIAL_CWND_BYTES

    if rtt <= 0 or nbytes <= 0:
        return 0.0
    bdp = rate * rtt / 8.0
    cwnd = float(INITIAL_CWND_BYTES)
    delivered = 0.0
    penalty = 0.0
    while True:
        burst = min(cwnd, nbytes - delivered)
        delivered += burst
        if delivered >= nbytes or cwnd >= bdp:
            break
        penalty += max(0.0, rtt - burst * 8.0 / rate)
        cwnd *= 2.0
    return penalty


class TestSlowStartClosedForm:
    @given(
        nbytes=st.integers(min_value=1, max_value=50_000_000),
        rtt=st.floats(min_value=0.0001, max_value=2.0),
        rate=st.floats(min_value=0.05, max_value=1000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_iterative_reference_exactly(self, nbytes, rtt, rate):
        from repro.netsim.tcp import slow_start_penalty

        rate_bps = mbps(rate)
        assert slow_start_penalty(nbytes, rate_bps, rtt) == _reference_slow_start_penalty(nbytes, rate_bps, rtt)

    def test_matches_reference_across_parameter_grid(self):
        from repro.netsim.tcp import INITIAL_CWND_BYTES, slow_start_penalty

        sizes = [1, 100, INITIAL_CWND_BYTES - 1, INITIAL_CWND_BYTES, INITIAL_CWND_BYTES + 1,
                 10_000, 100_000, 1_000_000, 25_000_000]
        rtts = [0.0, 0.001, 0.02, 0.1, 0.5]
        rates = [mbps(0.1), mbps(1), mbps(8), mbps(50), mbps(100), mbps(1000)]
        for nbytes in sizes:
            for rtt in rtts:
                for rate in rates:
                    assert slow_start_penalty(nbytes, rate, rtt) == _reference_slow_start_penalty(nbytes, rate, rtt), (
                        nbytes, rtt, rate,
                    )

    def test_zero_and_negative_inputs(self):
        from repro.netsim.tcp import slow_start_penalty

        assert slow_start_penalty(0, mbps(10), 0.02) == 0.0
        assert slow_start_penalty(-5, mbps(10), 0.02) == 0.0
        assert slow_start_penalty(10_000, mbps(10), 0.0) == 0.0


class TestBatchedEmissionEquivalence:
    """The batched sniffer path and per-packet replay must capture identically."""

    #: Connection set-ups beyond the plain TCP connection: a resumed
    #: (one-RTT) and a full (two-RTT) TLS handshake, and a connect/request/
    #: close cycle per transfer (the Cloud Drive per-file pattern).
    SCENARIOS = ("tls-1rtt", "tls-2rtt", "cycle")

    @staticmethod
    def _run_workload(batched: bool, transfers, scenario: str = "plain"):
        from repro.capture.sniffer import Sniffer
        from repro.netsim.endpoint import Endpoint
        from repro.netsim.simulator import NetworkSimulator
        from repro.netsim.tls import TLSParameters

        path = NetworkPath(rtt=0.02, uplink_bps=mbps(50), downlink_bps=mbps(100))
        server = Endpoint("h.example", "192.0.2.5", 443)
        simulator = NetworkSimulator()
        if batched:
            sniffer = Sniffer(simulator)
            trace = sniffer.trace
        else:
            # A bare callable has no accept_batch: the simulator materializes
            # each burst and replays it packet by packet (the legacy path).
            trace = PacketTrace()
            simulator.add_sniffer(trace.append)
        if scenario == "cycle":
            for nbytes, upstream in transfers:
                connection = simulator.open_connection(server, path, tls=TLSParameters(), handshake=False)
                connection.connect()
                up_bytes, down_bytes = (nbytes, 280) if upstream else (420, nbytes)
                connection.request(up_bytes, down_bytes, note="chunk-put")
                connection.close()
            return trace
        tls = {"plain": None, "tls-1rtt": TLSParameters().resumed(), "tls-2rtt": TLSParameters()}[scenario]
        connection = simulator.open_connection(server, path, tls=tls)
        for nbytes, upstream in transfers:
            connection.send(nbytes, upstream=upstream)
        connection.close()
        return trace

    @given(
        transfers=st.lists(
            st.tuples(st.integers(min_value=1, max_value=2_000_000), st.booleans()),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_traces_are_field_identical(self, transfers):
        batched = self._run_workload(True, transfers)
        replayed = self._run_workload(False, transfers)
        assert len(batched) == len(replayed)
        assert list(batched.packets) == list(replayed.packets)

    def test_aggregates_agree_without_materialization(self):
        transfers = [(350_000, True), (1_200, False), (80_000, True)]
        batched = self._run_workload(True, transfers)
        replayed = self._run_workload(False, transfers)
        assert batched.total_bytes() == replayed.total_bytes()
        assert batched.payload_bytes() == replayed.payload_bytes()
        assert batched.uploaded_payload_bytes() == replayed.uploaded_payload_bytes()
        assert analysis.count_tcp_syns(batched) == analysis.count_tcp_syns(replayed)
        assert analysis.burst_payload_sizes(batched) == analysis.burst_payload_sizes(replayed)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @given(
        transfers=st.lists(
            st.tuples(st.integers(min_value=1, max_value=400_000), st.booleans()),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_connection_scenarios_are_field_identical(self, scenario, transfers):
        # The handshake, TLS, request and teardown batches, compared field
        # by field with the per-packet replay.
        batched = self._run_workload(True, transfers, scenario)
        replayed = self._run_workload(False, transfers, scenario)
        assert len(batched) == len(replayed)
        assert list(batched.packets) == list(replayed.packets)
        assert analysis.count_tcp_syns(batched) == analysis.count_tcp_syns(replayed)


class TestFlowElisionEquivalence:
    """Elided capture, lazily materialized, must be bit-identical to eager.

    The flow fast path stores bulk-transfer bursts as one
    :class:`~repro.netsim.packet.FlowSegment` row and only expands it when a
    per-packet query forces it.  Every field of the expanded trace — exact
    float timestamps included — must equal what eager per-record emission
    produces, across sizes, RTTs, rates and request/response mixes;
    otherwise the byte-identity contract of the results documents breaks.
    """

    @staticmethod
    def _run_workload(elide: bool, transfers, rtt, up_mbps, down_mbps):
        from repro.capture.sniffer import Sniffer
        from repro.netsim.endpoint import Endpoint
        from repro.netsim.simulator import NetworkSimulator
        from repro.netsim.tcp import set_flow_elision

        path = NetworkPath(rtt=rtt, uplink_bps=mbps(up_mbps), downlink_bps=mbps(down_mbps))
        previous = set_flow_elision(elide)
        try:
            simulator = NetworkSimulator()
            sniffer = Sniffer(simulator)
            connection = simulator.open_connection(
                Endpoint("h.example", "192.0.2.5", 443), path
            )
            for up_bytes, down_bytes in transfers:
                connection.request(up_bytes, down_bytes, note="prop")
            connection.close()
        finally:
            set_flow_elision(previous)
        return sniffer.trace

    transfer_lists = st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3_000_000),
            st.integers(min_value=1, max_value=500_000),
        ),
        min_size=1,
        max_size=6,
    )

    @given(
        transfers=transfer_lists,
        rtt=st.floats(min_value=0.001, max_value=0.3),
        up_mbps=st.floats(min_value=0.5, max_value=100.0),
        down_mbps=st.floats(min_value=0.5, max_value=100.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_lazy_expansion_is_field_identical(self, transfers, rtt, up_mbps, down_mbps):
        elided = self._run_workload(True, transfers, rtt, up_mbps, down_mbps)
        eager = self._run_workload(False, transfers, rtt, up_mbps, down_mbps)
        assert len(elided) == len(eager)
        # Column-by-column, field-by-field, exact — including float
        # timestamps (== on floats, no tolerance).
        assert elided.sorted_columns() == eager.sorted_columns()

    @given(
        transfers=transfer_lists,
        rtt=st.floats(min_value=0.001, max_value=0.2),
        cut=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_windowed_views_are_field_identical(self, transfers, rtt, cut):
        elided = self._run_workload(True, transfers, rtt, 50.0, 100.0)
        eager = self._run_workload(False, transfers, rtt, 50.0, 100.0)
        first = eager.first_timestamp() or 0.0
        last = eager.last_timestamp() or 0.0
        # A window whose edges land mid-segment exercises subrange trimming.
        edge = first + (last - first) * cut
        for window_elided, window_eager in (
            (elided.between(edge, last), eager.between(edge, last)),
            (elided.between(first, edge), eager.between(first, edge)),
            (elided.after(edge), eager.after(edge)),
        ):
            assert len(window_elided) == len(window_eager)
            assert window_elided.sorted_columns() == window_eager.sorted_columns()

    @given(transfers=transfer_lists)
    @settings(max_examples=15, deadline=None)
    def test_aggregates_agree_without_materialization(self, transfers):
        elided = self._run_workload(True, transfers, 0.02, 50.0, 100.0)
        eager = self._run_workload(False, transfers, 0.02, 50.0, 100.0)
        # Aggregate paths read the segment rows directly — no expansion.
        assert elided.total_bytes() == eager.total_bytes()
        assert elided.payload_bytes() == eager.payload_bytes()
        assert elided.uploaded_payload_bytes() == eager.uploaded_payload_bytes()
        assert elided.first_timestamp() == eager.first_timestamp()
        assert elided.last_timestamp() == eager.last_timestamp()
        assert analysis.count_tcp_syns(elided) == analysis.count_tcp_syns(eager)
        assert analysis.syn_time_series(elided) == analysis.syn_time_series(eager)
        assert not elided.has_segments() or elided.segment_columns() is not None


# --------------------------------------------------------------------------- #
# Interleaved connection operations on one simulator
# --------------------------------------------------------------------------- #
#: One path for every connection, so handshakes and teardowns on different
#: connections land on equal timestamps.
_OPS_PATH = NetworkPath(rtt=0.02, uplink_bps=mbps(50), downlink_bps=mbps(100))
_SLOTS = st.integers(min_value=0, max_value=2)

#: Operations on up to three connections: open (plain, resumed-TLS or
#: full-TLS handshake), send (elided from 35 kB of wire bytes up), request,
#: close, and a clock step (0 s included).  FIN and ACK-aggregate rows are
#: stamped up to an RTT ahead of the clock, so captures come out unsorted.
operation_lists = st.lists(
    st.one_of(
        st.tuples(st.just("open"), _SLOTS, st.sampled_from(("plain", "tls-1rtt", "tls-2rtt"))),
        st.tuples(st.just("send"), _SLOTS, st.integers(min_value=0, max_value=400_000), st.booleans()),
        st.tuples(
            st.just("request"), _SLOTS, st.integers(min_value=0, max_value=200_000),
            st.integers(min_value=0, max_value=200_000),
        ),
        st.tuples(st.just("close"), _SLOTS),
        st.tuples(st.just("wait"), st.sampled_from((0.0, 0.01, 0.02, 0.5))),
    ),
    min_size=1,
    max_size=14,
)


def run_operations(operations, *sniffers):
    """Drive ``operations`` on one simulator; returns its :class:`Sniffer` and how many operations emitted packets.

    Slot 0 opens first, so the capture is never empty.  An operation on a
    slot without an open connection is skipped.  ``sniffers`` are attached
    after the :class:`Sniffer`.
    """
    from repro.capture.sniffer import Sniffer
    from repro.netsim.endpoint import Endpoint
    from repro.netsim.simulator import NetworkSimulator
    from repro.netsim.tls import TLSParameters

    simulator = NetworkSimulator()
    sniffer = Sniffer(simulator)
    for extra in sniffers:
        simulator.add_sniffer(extra)
    tls = {"plain": None, "tls-1rtt": TLSParameters().resumed(), "tls-2rtt": TLSParameters()}
    server = Endpoint("h.example", "192.0.2.5", 443)
    open_connections = {}
    emitting = 0
    for operation in [("open", 0, "tls-2rtt")] + list(operations):
        kind, arguments = operation[0], operation[1:]
        if kind == "wait":
            simulator.run_for(arguments[0])
            continue
        slot = arguments[0]
        connection = open_connections.get(slot)
        if kind == "open":
            if connection is None:
                open_connections[slot] = simulator.open_connection(server, _OPS_PATH, tls=tls[arguments[1]])
                emitting += 1
        elif connection is None:
            continue
        elif kind == "send":
            nbytes, upstream = arguments[1:]
            connection.send(nbytes, upstream=upstream, note=f"send-{slot}")
            emitting += nbytes > 0
        elif kind == "request":
            up_bytes, down_bytes = arguments[1:]
            connection.request(up_bytes, down_bytes, note=f"request-{slot}")
            emitting += up_bytes > 0 or down_bytes > 0
        else:
            connection.close()
            del open_connections[slot]
            emitting += 1
    return sniffer, emitting


def expanded_rows(trace):
    """``trace``'s ts, payload, header-bytes, header and ordinal columns in row order, segments expanded in place."""
    ts, payload, hlen, hdr, ords = [], [], [], [], []
    for row, segment in enumerate(trace._seg):
        if segment is None:
            ts.append(trace._ts[row])
            payload.append(trace._payload[row])
            hlen.append(trace._hlen[row])
            hdr.append(trace._hdr[row])
            ords.append(trace._ord[row])
            continue
        seg_ts, seg_payload, seg_hlen = segment.expand_columns()
        ts += seg_ts
        payload += seg_payload
        hlen += seg_hlen
        hdr += [segment.header] * len(seg_ts)
        ords += range(trace._ord[row], trace._ord[row] + len(seg_ts))
    return [ts, payload, hlen, hdr, ords]


def tuple_sorted(columns):
    """``columns`` (timestamps first, ordinals last) in the order of ``sorted(zip(ts, ord, range(n)))``."""
    ts, ords = columns[0], columns[-1]
    order = [row for _, _, row in sorted(zip(ts, ords, range(len(ts))))]
    return [[column[row] for row in order] for column in columns]


class _BatchCounter:
    """A column-aware sniffer that counts the batches and flow segments reaching it."""

    def __init__(self):
        self.batches = 0
        self.flows = 0

    def __call__(self, packet):
        raise AssertionError("the simulator delivers whole batches to a column-aware sniffer")

    def accept_batch(self, batch):
        assert len(batch) > 0
        self.batches += 1

    def accept_flow(self, segment):
        self.flows += 1


class TestOperationBatches:
    """One batch per connection operation, captured as per-packet emission would be."""

    @given(operations=operation_lists)
    @settings(max_examples=40, deadline=None)
    def test_batched_and_per_packet_captures_are_identical(self, operations):
        plain = PacketTrace()
        counter = _BatchCounter()
        sniffer, emitting = run_operations(operations, plain.append, counter)
        # An elided burst splits its operation's batch around the segment.
        assert counter.batches == emitting + counter.flows
        trace = sniffer.trace
        assert len(trace) == len(plain)
        # Capture order, ordinals included: the per-packet callable saw the
        # packets in the order the Sniffer's rows (segments expanded) hold.
        assert expanded_rows(trace) == [plain._ts, plain._payload, plain._hlen, plain._hdr, plain._ord]
        assert list(trace.packets) == list(plain.packets)

    def test_each_operation_is_one_batch(self):
        from repro.netsim.endpoint import Endpoint
        from repro.netsim.simulator import NetworkSimulator
        from repro.netsim.tls import TLSParameters

        simulator = NetworkSimulator()
        batches = []
        counter = _BatchCounter()
        counter.accept_batch = batches.append
        simulator.add_sniffer(counter)
        connection = simulator.open_connection(Endpoint("h.example", "192.0.2.5", 443), _OPS_PATH, tls=TLSParameters())
        connection.request(10_000, 280, note="chunk-put")
        connection.send(1_200, upstream=True)
        connection.close()
        notes = [[header.note for header in batch.headers] for batch in batches]
        assert notes == [
            ["syn", "syn-ack", "handshake-ack", "tls-client-hello", "tls-server-hello", "tls-server-hello",
             "tls-server-hello", "tls-client-finished", "tls-server-finished"],
            ["chunk-put"] * 7 + ["ack-aggregate", "chunk-put-response", "ack-aggregate"],
            ["data", "ack-aggregate"],
            ["fin", "fin-ack", "fin-ack-ack"],
        ]
        # A burst's rows share one header object, and a note's header is
        # built once per direction and reused.
        request, send = batches[1].headers, batches[2].headers
        assert all(header is request[0] for header in request[:7])
        assert request[7] is send[1] and request[9] is not request[7]
        assert counter.flows == 0


#: Rows and elided bursts on a 0.25 s grid: a burst of ``records`` MSS
#: segments spanning ``records`` grid steps puts every record on the grid,
#: so plain rows and elided records tie on timestamps often.
_GRID = 0.25
grid_emissions = st.lists(
    st.one_of(
        st.tuples(st.just("row"), _SLOTS, st.integers(min_value=0, max_value=40)),
        st.tuples(
            st.just("burst"), _SLOTS, st.integers(min_value=0, max_value=40), st.integers(min_value=24, max_value=60)
        ),
        st.tuples(st.just("flush"), _SLOTS),
    ),
    min_size=1,
    max_size=20,
)


def capture_grid(emissions):
    """A :class:`Sniffer` capture of ``emissions`` queued on three connections, stamped anywhere on the grid."""
    from repro.capture.sniffer import Sniffer
    from repro.netsim.endpoint import Endpoint
    from repro.netsim.packet import MSS
    from repro.netsim.simulator import NetworkSimulator

    simulator = NetworkSimulator()
    sniffer = Sniffer(simulator)
    server = Endpoint("h.example", "192.0.2.5", 443)
    connections = [simulator.open_connection(server, _OPS_PATH, handshake=False) for _ in range(3)]
    connections[0]._control(0.0, PacketDirection.OUT, TCPFlags.SYN, "syn")
    for kind, slot, *arguments in emissions:
        connection = connections[slot]
        if kind == "row":
            connection._control(arguments[0] * _GRID, PacketDirection.IN, TCPFlags.ACK, "ack-aggregate")
        elif kind == "burst":
            start, records = arguments[0] * _GRID, arguments[1]
            connection._emit_data(start, start + records * _GRID, records * MSS, PacketDirection.OUT, note="burst")
        else:
            connection._flush()
    for connection in connections:
        connection._flush()
    return sniffer.trace


def assert_key_sorts_match_tuple_sort(trace, cuts):
    """Sorting ``trace``, windows of it and their expansions orders rows as the tuple sort does."""
    expected = tuple_sorted(list(trace._columns()))
    expected_expanded = tuple_sorted(expanded_rows(trace))
    trace._ensure_sorted()
    assert list(trace._columns()) == expected
    first, last = trace.first_timestamp(), trace.last_timestamp()
    start, end = sorted(first + (last - first) * cut for cut in cuts)
    # A window cut from a trace with segments lists its straddling segments
    # first, so its ordinals need not rise.
    for window in (trace.between(start, end), trace.between(0.0, math.inf), trace.after(start), trace.after(end)):
        window_expected = tuple_sorted(list(window._columns()))
        window_expanded = tuple_sorted(expanded_rows(window))
        window._ensure_sorted()
        assert list(window._columns()) == window_expected
        window.sorted_columns()
        ts, payload, hlen, hdr, _, ords = window._columns()
        assert [ts, payload, hlen, hdr, ords] == window_expanded
    trace.sorted_columns()
    ts, payload, hlen, hdr, _, ords = trace._columns()
    assert [ts, payload, hlen, hdr, ords] == expected_expanded


class TestKeySortOrder:
    """``PacketTrace``'s key sorts order rows exactly as the tuple sort they replace."""

    cuts = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))

    @given(operations=operation_lists, cuts=cuts)
    @settings(max_examples=40, deadline=None)
    def test_operation_captures_sort_like_the_tuple_sort(self, operations, cuts):
        sniffer, _ = run_operations(operations)
        assert_key_sorts_match_tuple_sort(sniffer.trace, cuts)

    @given(emissions=grid_emissions, cuts=cuts)
    @settings(max_examples=60, deadline=None)
    def test_grid_captures_sort_like_the_tuple_sort(self, emissions, cuts):
        assert_key_sorts_match_tuple_sort(capture_grid(emissions), cuts)

    def test_plain_row_keeps_its_place_before_a_segment_record_at_its_timestamp(self):
        # An ACK row captured at t = 5.0, then a 30-record burst from t = 4.0
        # over 3 s whose record 9 lands on t = 5.0 inside the elided
        # segment.  The ACK was captured first, so it sorts first; a sort by
        # timestamp alone of the window's rows would put it after.
        from repro.netsim.endpoint import Endpoint
        from repro.netsim.packet import MSS
        from repro.netsim.simulator import NetworkSimulator
        from repro.capture.sniffer import Sniffer

        simulator = NetworkSimulator()
        sniffer = Sniffer(simulator)
        connection = simulator.open_connection(Endpoint("h.example", "192.0.2.5", 443), _OPS_PATH, handshake=False)
        connection._control(5.0, PacketDirection.IN, TCPFlags.ACK, "ack-aggregate")
        connection._flush()
        connection._emit_data(4.0, 7.0, 30 * MSS, PacketDirection.OUT, note="burst")
        connection._flush()
        trace = sniffer.trace
        assert trace.has_segments()
        columns = trace.between(0.0, 100.0).sorted_columns()
        at_five = [note for ts, note in zip(columns.timestamps, columns.notes) if ts == 5.0]
        assert at_five == ["ack-aggregate", "burst"]
        assert columns.timestamps == sorted(columns.timestamps)
