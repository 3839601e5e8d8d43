"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.capture import analysis
from repro.capture.trace import PacketTrace
from repro.netsim.link import NetworkPath
from repro.netsim.packet import Packet, PacketDirection, TCPFlags
from repro.sync.bundling import BundleBuilder, BundleEntry
from repro.sync.chunking import FixedChunker, VariableChunker
from repro.sync.compression import CompressionPolicy, Compressor
from repro.sync.delta import DeltaCodec
from repro.sync.dedup import DedupIndex
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


class TestDedupProperties:
    @given(digests=st.lists(st.text(alphabet="abcdef0123456789", min_size=4, max_size=8), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_known_set_grows_monotonically(self, digests):
        index = DedupIndex()
        seen = set()
        for digest in digests:
            index.add(digest)
            seen.add(digest)
            assert len(index) == len(seen)
            assert all(d in index for d in seen)


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
        # One-row SYN, FIN and ACK batches and the TLS flights, compared
        # field by field with the per-packet replay.
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
        assert analysis.classify_hosts(elided) == analysis.classify_hosts(eager)
        assert not elided.has_segments() or elided.segment_columns() is not None
