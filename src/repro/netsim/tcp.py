"""TCP connection model.

The model captures the first-order latency and byte costs that drive the
paper's results:

* three-way handshake (one RTT, plus SYN/SYN-ACK/ACK packets in the trace),
* optional TLS handshake (extra RTTs, certificate bytes, CPU delay),
* slow-start ramp-up: early rounds deliver less than the bandwidth-delay
  product, so short transfers pay extra round trips,
* serialization at the bottleneck rate,
* TCP/IP header overhead of 40 bytes per segment plus ACK traffic,
* request/response exchanges with a server processing delay.

Each connection operation (connect, send, request, close) emits its
packets as one :class:`~repro.netsim.packet.PacketBatch` (an elided bulk
transfer adds a :class:`~repro.netsim.packet.FlowSegment` between the rows
before and after it) through the owning
:class:`~repro.netsim.simulator.NetworkSimulator`, which forwards them to
sniffers.  All analysis downstream works on those packets only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConnectionStateError
from repro.netsim.endpoint import Endpoint
from repro.netsim.link import NetworkPath
from repro.netsim.packet import (
    MAX_BURST_RECORDS,
    MSS,
    TCP_IP_HEADER_BYTES,
    FlowSegment,
    PacketBatch,
    PacketDirection,
    PacketHeader,
    TCPFlags,
    burst_byte_columns,
    burst_range_totals,
)
from repro.netsim.tls import TLSParameters

__all__ = [
    "TCPState",
    "TransferStats",
    "TCPConnection",
    "INITIAL_CWND_BYTES",
    "slow_start_penalty",
    "slow_start_penalty_table",
    "slow_start_penalties",
    "set_flow_elision",
]

#: Initial congestion window (10 segments, per RFC 6928).
INITIAL_CWND_BYTES = 10 * MSS

#: Cap on the number of data-packet records emitted per transfer; larger
#: transfers coalesce several segments into one record while keeping byte
#: accounting exact.
MAX_DATA_RECORDS_PER_TRANSFER = MAX_BURST_RECORDS

#: Bursts with at least this many records elide their steady-state middle
#: into one :class:`~repro.netsim.packet.FlowSegment`.  Smaller bursts —
#: handshake flights, TLS records, short sends — stay packet-level.
FLOW_ELISION_MIN_RECORDS = 24

#: Slow-start head records kept packet-level at the front of an elided burst.
_ELISION_HEAD_RECORDS = 4

#: Process-wide fidelity switch: ``True`` (default) elides steady-state
#: burst middles into flow segments, ``False`` restores eager per-record
#: emission everywhere (full-fidelity traces).
_FLOW_ELISION = True


def set_flow_elision(enabled: bool) -> bool:
    """Toggle flow elision process-wide; returns the previous setting.

    Both settings produce byte-identical analysis results — elided segments
    expand deterministically on demand — so this only trades simulation
    speed against packet-level traces being materialized up front.
    """
    global _FLOW_ELISION
    previous = _FLOW_ELISION
    _FLOW_ELISION = bool(enabled)
    return previous

#: Flags carried by every data-packet record.
_DATA_FLAGS = TCPFlags.ACK | TCPFlags.PSH
#: Flags of the handshake and teardown replies, combined once.
_SYN_ACK = TCPFlags.SYN | TCPFlags.ACK
_FIN_ACK = TCPFlags.FIN | TCPFlags.ACK

#: Memoized transfer durations keyed on the full set of inputs the math
#: depends on.  Campaign workloads repeat the same transfer sizes over the
#: same paths thousands of times; the duration is a pure function of the
#: key, so the memo is shared process-wide and never affects determinism.
_DURATION_MEMO: Dict[Tuple[int, bool, float, float], float] = {}
_DURATION_MEMO_MAX = 4096

#: Memoized :func:`~repro.netsim.packet.burst_byte_columns` of packet-level
#: bursts, keyed on the burst's byte count, the only input they depend on.
#: Bounded like :data:`_DURATION_MEMO`.
_BURST_MEMO: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
_BURST_MEMO_MAX = 4096


def slow_start_penalty(nbytes: int, rate: float, rtt: float) -> float:
    """Slow-start latency penalty for ``nbytes`` at ``rate`` over ``rtt``.

    While the congestion window is below the bandwidth-delay product the
    sender idles part of each round trip waiting for ACKs before it can
    grow the window; the final round pays no such penalty.  Every
    penalised round sends a full window ``INITIAL_CWND_BYTES * 2**i``, so
    instead of simulating the transfer byte by byte the number of
    penalised rounds ``k`` is computed in closed form:

    * size bound — round ``i`` completes the transfer once the cumulative
      geometric series ``C0 * (2**(i+1) - 1)`` reaches ``nbytes``;
    * BDP bound — no round pays once its window covers the
      bandwidth-delay product ``rate * rtt / 8`` (the length of
      :func:`slow_start_penalty_table`).

    The penalty of ``k`` rounds is then entry ``k`` of that table.
    """
    if rtt <= 0 or nbytes <= 0:
        return 0.0
    # Size bound: smallest e with C0 * (2**e - 1) >= nbytes, k = e - 1.
    windows = -(-(nbytes + INITIAL_CWND_BYTES) // INITIAL_CWND_BYTES)
    rounds = max(0, (windows - 1).bit_length() - 1)
    penalties = slow_start_penalty_table(rate, rtt)
    return penalties[min(rounds, len(penalties) - 1)]


def slow_start_penalty_table(rate: float, rtt: float) -> List[float]:
    """Slow-start penalty by number of penalised rounds, up to the BDP bound.

    Entry ``k`` is the penalty of ``k`` penalised rounds at ``rate`` over
    ``rtt``; there is one entry per round the bandwidth-delay product
    allows, plus entry 0.  The per-round terms are accumulated in the same
    float-operation order as the byte-tracking loop this replaces, so
    results are bit-identical to the seed engine (the golden documents pin
    bytes).
    """
    if rtt <= 0:
        return [0.0]
    # BDP bound: smallest i with C0 * 2**i >= bdp.  ldexp keeps the
    # comparison in exact floats, mirroring the doubling of the old loop.
    bdp = rate * rtt / 8.0
    rounds = 0
    if INITIAL_CWND_BYTES < bdp:
        rounds = max(1, int(math.log2(bdp / INITIAL_CWND_BYTES)))
        while math.ldexp(INITIAL_CWND_BYTES, rounds) < bdp:
            rounds += 1
        while rounds > 0 and math.ldexp(INITIAL_CWND_BYTES, rounds - 1) >= bdp:
            rounds -= 1
    penalties = [0.0]
    penalty = 0.0
    cwnd = float(INITIAL_CWND_BYTES)
    for _ in range(rounds):
        penalty += rtt - cwnd * 8.0 / rate
        cwnd *= 2.0
        penalties.append(penalty)
    return penalties


def slow_start_penalties(sizes: np.ndarray, rate: float, rtt: float) -> np.ndarray:
    """:func:`slow_start_penalty` of every entry of the integer array ``sizes``.

    One :func:`slow_start_penalty_table` serves them all.  By the size
    bound a transfer pays round ``k >= 1`` iff ``nbytes > C0 * (2**k - 1)``,
    so its number of rounds is the count of those bounds below it (capped
    by the table's length), found by one sorted search.
    """
    penalties = slow_start_penalty_table(rate, rtt)
    bounds = [INITIAL_CWND_BYTES * ((1 << k) - 1) for k in range(1, len(penalties))]
    return np.array(penalties)[np.searchsorted(bounds, sizes)]


class TCPState(str, enum.Enum):
    """Lifecycle states of a simulated connection."""

    CLOSED = "closed"
    ESTABLISHED = "established"
    FINISHED = "finished"


@dataclass
class TransferStats:
    """Summary of one data transfer or request/response exchange."""

    start: float
    end: float
    app_bytes_up: int = 0
    app_bytes_down: int = 0

    @property
    def duration(self) -> float:
        """Elapsed simulated time of the transfer."""
        return self.end - self.start


class TCPConnection:
    """A single TCP (optionally TLS) connection between the client and a server."""

    def __init__(
        self,
        simulator: "NetworkSimulator",
        local: Endpoint,
        remote: Endpoint,
        path: NetworkPath,
        connection_id: int,
        local_port: int,
        tls: Optional[TLSParameters] = None,
    ) -> None:
        self._sim = simulator
        self._clock = simulator.clock
        self.local = local
        self.remote = remote
        self.path = path
        self.connection_id = connection_id
        self.local_port = local_port
        self.tls = tls
        # The 4-tuples are invariant for the life of the connection; hoisting
        # them out of the per-record emission loops keeps the hot path free
        # of repeated attribute chains.
        self._addr_out = (local.ip, remote.ip, local_port, remote.port)
        self._addr_in = (remote.ip, local.ip, remote.port, local_port)
        #: Headers by note, one table per direction (see :meth:`_header`).
        self._headers_out: Dict[str, PacketHeader] = {}
        self._headers_in: Dict[str, PacketHeader] = {}
        #: Rows queued by the running operation; :meth:`_flush` emits them
        #: as one batch.
        self._pending_ts: List[float] = []
        self._pending_payload: List[int] = []
        self._pending_hlen: List[int] = []
        self._pending_hdr: List[PacketHeader] = []
        self.state = TCPState.CLOSED
        self.bytes_sent = 0
        self.bytes_received = 0
        self.opened_at: Optional[float] = None
        self.secured = False

    # ------------------------------------------------------------------ #
    # Connection lifecycle
    # ------------------------------------------------------------------ #
    def connect(self) -> TransferStats:
        """Perform the three-way handshake (and TLS handshake if configured).

        The packets of both handshakes leave as one batch.
        """
        if self.state is not TCPState.CLOSED:
            raise ConnectionStateError("connect() called on a non-closed connection")
        clock = self._clock
        start = clock.now
        rtt = self.path.rtt
        self._control(start, PacketDirection.OUT, TCPFlags.SYN, "syn")
        self._control(start + rtt, PacketDirection.IN, _SYN_ACK, "syn-ack")
        self._control(start + rtt, PacketDirection.OUT, TCPFlags.ACK, "handshake-ack")
        clock.advance(rtt)
        self.state = TCPState.ESTABLISHED
        self.opened_at = clock.now
        tracer = self._sim.tracer
        if tracer.enabled:
            tracer.sim_span(
                "tcp.connect",
                start,
                clock.now,
                track=self._sim.trace_track,
                conn=self.connection_id,
                host=self.remote.hostname,
            )
        if self.tls is not None:
            self._tls_handshake()
        self._flush()
        return TransferStats(start=start, end=clock.now)

    def _tls_handshake(self) -> None:
        """Model the TLS handshake flights on top of the established connection."""
        params = self.tls
        assert params is not None
        rtt = self.path.rtt
        clock = self._clock
        start = clock.now
        # Flight 1: ClientHello out, ServerHello/Certificate in.
        self._emit_data(start, start + rtt / 2, params.client_hello_bytes, PacketDirection.OUT, note="tls-client-hello")
        self._emit_data(start + rtt / 2, start + rtt, params.server_hello_bytes, PacketDirection.IN, note="tls-server-hello")
        elapsed = rtt
        if params.handshake_rtts >= 2:
            # Flight 2: ClientKeyExchange/Finished out, server Finished in.
            t1 = start + rtt
            self._emit_data(t1, t1 + rtt / 2, params.client_finished_bytes, PacketDirection.OUT, note="tls-client-finished")
            self._emit_data(t1 + rtt / 2, t1 + rtt, params.server_finished_bytes, PacketDirection.IN, note="tls-server-finished")
            elapsed += rtt
        else:
            self._emit_data(start + rtt, start + rtt, params.client_finished_bytes, PacketDirection.OUT, note="tls-client-finished")
        elapsed += params.compute_delay
        clock.advance(elapsed)
        self.secured = True
        tracer = self._sim.tracer
        if tracer.enabled:
            tracer.sim_span(
                "tls.handshake",
                start,
                clock.now,
                track=self._sim.trace_track,
                conn=self.connection_id,
                host=self.remote.hostname,
                rtts=params.handshake_rtts,
            )

    def close(self) -> None:
        """Close the connection.

        Teardown is asynchronous from the application's point of view: the
        FIN exchange is emitted as one batch but the simulated clock does not
        wait for it, matching the paper's choice to ignore TCP tear-down
        delays (§5.2).
        """
        if self.state is not TCPState.ESTABLISHED:
            return
        now = self._clock.now
        rtt = self.path.rtt
        self._control(now, PacketDirection.OUT, _FIN_ACK, "fin")
        self._control(now + rtt, PacketDirection.IN, _FIN_ACK, "fin-ack")
        self._control(now + rtt, PacketDirection.OUT, TCPFlags.ACK, "fin-ack-ack")
        self._flush()
        self.state = TCPState.FINISHED

    @property
    def is_open(self) -> bool:
        """True while the connection can carry application data."""
        return self.state is TCPState.ESTABLISHED

    # ------------------------------------------------------------------ #
    # Data transfer
    # ------------------------------------------------------------------ #
    def send(self, nbytes: int, *, upstream: bool = True, note: str = "data") -> TransferStats:
        """Send ``nbytes`` of application data in one direction.

        The caller's clock is advanced to the time the last payload byte is
        put on the wire (upstream) or received (downstream).  The data rows
        and the ACK aggregate leave as one batch.
        """
        stats = self._send(nbytes, upstream, note)
        self._flush()
        return stats

    def _send(self, nbytes: int, upstream: bool, note: str) -> TransferStats:
        """:meth:`send`, with its rows left queued for the running operation's batch."""
        self._require_open()
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        clock = self._clock
        start = clock.now
        if nbytes == 0:
            return TransferStats(start=start, end=start)
        wire_payload = self.tls.record_bytes(nbytes) if self.tls is not None else nbytes
        duration = self.transfer_duration(wire_payload, upstream=upstream)
        direction = PacketDirection.OUT if upstream else PacketDirection.IN
        self._emit_data(start, start + duration, wire_payload, direction, note=note)
        self._emit_acks(start, start + duration, wire_payload, direction)
        clock.advance(duration)
        tracer = self._sim.tracer
        if tracer.enabled:
            tracer.sim_span(
                "tcp.send",
                start,
                clock.now,
                track=self._sim.trace_track,
                conn=self.connection_id,
                bytes=nbytes,
                dir="up" if upstream else "down",
                note=note,
            )
            tracer.count(f"tcp.conn.{self.connection_id:05d}.wire_bytes", wire_payload)
            tracer.observe("tcp.send_seconds", duration)
        if upstream:
            self.bytes_sent += nbytes
            return TransferStats(start=start, end=clock.now, app_bytes_up=nbytes)
        self.bytes_received += nbytes
        return TransferStats(start=start, end=clock.now, app_bytes_down=nbytes)

    def request(
        self,
        up_bytes: int,
        down_bytes: int,
        *,
        note: str = "request",
        server_processing: Optional[float] = None,
    ) -> TransferStats:
        """Model an application request/response exchange.

        The request of ``up_bytes`` is sent upstream; after it is fully
        received by the server (half an RTT later), the server spends its
        processing delay and the response of ``down_bytes`` flows back.
        Both sends leave as one batch.
        """
        self._require_open()
        clock = self._clock
        start = clock.now
        if up_bytes > 0:
            self._send(up_bytes, True, note)
        processing = self.path.server_processing if server_processing is None else server_processing
        # Wait for the request to reach the server, be processed, and the
        # first response byte to travel back.
        clock.advance(self.path.rtt + processing)
        if down_bytes > 0:
            self._send(down_bytes, False, f"{note}-response")
        self._flush()
        return TransferStats(
            start=start,
            end=clock.now,
            app_bytes_up=max(up_bytes, 0),
            app_bytes_down=max(down_bytes, 0),
        )

    def transfer_duration(self, wire_payload: int, *, upstream: bool = True) -> float:
        """Return the time needed to transfer ``wire_payload`` bytes.

        The duration is serialization time at the bottleneck plus the
        slow-start penalty: while the congestion window is below the
        bandwidth-delay product each round trip delivers only one window.
        The result is a pure function of ``(wire_payload, upstream, rtt,
        rate)`` and is memoized on that key — workloads repeat the same
        transfer shapes over the same paths throughout a campaign.
        """
        if wire_payload <= 0:
            return 0.0
        path = self.path
        rate = path.rate(upstream)
        key = (wire_payload, upstream, path.rtt, rate)
        duration = _DURATION_MEMO.get(key)
        if duration is None:
            duration = wire_payload * 8.0 / rate + self._slow_start_penalty(wire_payload, rate)
            if len(_DURATION_MEMO) >= _DURATION_MEMO_MAX:
                _DURATION_MEMO.clear()
            _DURATION_MEMO[key] = duration
        return duration

    def _slow_start_penalty(self, nbytes: int, rate: float) -> float:
        """Extra latency caused by slow-start ramp-up for ``nbytes`` at ``rate``.

        Delegates to the closed-form :func:`slow_start_penalty` over this
        connection's path RTT.
        """
        return slow_start_penalty(nbytes, rate, self.path.rtt)

    # ------------------------------------------------------------------ #
    # Packet emission helpers
    # ------------------------------------------------------------------ #
    def _flush(self) -> None:
        """Emit the queued rows as one batch (nothing when none are queued).

        Every operation ends here.  No event fires inside an operation — the
        clock only moves forward — so its rows are consecutive in capture
        order whether they leave in one batch or one per burst.
        """
        if self._pending_ts:
            self._sim.emit_batch(
                PacketBatch(self._pending_ts, self._pending_payload, self._pending_hlen, self._pending_hdr)
            )
            self._pending_ts, self._pending_payload, self._pending_hlen, self._pending_hdr = [], [], [], []

    def _control(
        self,
        timestamp: float,
        direction: PacketDirection,
        flags: TCPFlags,
        note: str,
        headers_len: int = TCP_IP_HEADER_BYTES,
    ) -> None:
        """Queue one packet without payload."""
        self._pending_ts.append(timestamp)
        self._pending_payload.append(0)
        self._pending_hlen.append(headers_len)
        self._pending_hdr.append(self._header(direction, flags, note))

    def _emit_data(self, start: float, end: float, nbytes: int, direction: PacketDirection, *, note: str) -> None:
        """Queue payload packets for ``nbytes`` spread between ``start`` and ``end``.

        Every record of the burst refers to one
        :class:`~repro.netsim.packet.PacketHeader`.  Its byte columns depend
        only on ``nbytes`` and come from :data:`_BURST_MEMO`; the timestamps
        use the canonical loop's expression.
        """
        if nbytes <= 0:
            return
        segments = math.ceil(nbytes / MSS)
        records = min(segments, MAX_DATA_RECORDS_PER_TRANSFER)
        span = max(end - start, 0.0)
        header = self._header(direction, _DATA_FLAGS, note)
        if _FLOW_ELISION and records >= FLOW_ELISION_MIN_RECORDS:
            self._emit_data_elided(start, span, nbytes, segments, records, segments / records, header)
            return
        columns = _BURST_MEMO.get(nbytes)
        if columns is None:
            columns = burst_byte_columns(nbytes, segments, records)
            if len(_BURST_MEMO) >= _BURST_MEMO_MAX:
                _BURST_MEMO.clear()
            _BURST_MEMO[nbytes] = columns
        payloads, headers = columns
        count = len(payloads)
        self._pending_ts += [start + span * index / records for index in range(1, count + 1)]
        self._pending_payload += payloads
        self._pending_hlen += headers
        self._pending_hdr += [header] * count

    def _emit_data_elided(
        self,
        start: float,
        span: float,
        nbytes: int,
        segments: int,
        records: int,
        segs_per_record: float,
        header: PacketHeader,
    ) -> None:
        """Elided burst emission: packet-level head and tail, flow-segment middle.

        The slow-start head (first records) and the tail record stay
        packet-level for fidelity; the steady-state middle ships as one
        :class:`~repro.netsim.packet.FlowSegment` whose aggregates come from
        the closed-form boundary telescoping — the flow path never runs the
        per-record loop, yet expansion reproduces it bit for bit.  The head
        leaves with the rows queued before it, ahead of the segment; the
        tail stays queued for the operation's batch.
        """
        # Head records [0, _ELISION_HEAD_RECORDS): the canonical loop, verbatim.
        remaining = nbytes
        timestamps = []
        payloads = []
        headers = []
        boundary = 0
        for index in range(_ELISION_HEAD_RECORDS):
            next_boundary = int(round((index + 1) * segs_per_record))
            seg_count = max(next_boundary - boundary, 1)
            boundary = next_boundary
            payload = min(remaining, seg_count * MSS)
            remaining -= payload
            timestamps.append(start + span * (index + 1) / records)
            payloads.append(payload)
            headers.append(TCP_IP_HEADER_BYTES * seg_count)
        self._pending_ts += timestamps
        self._pending_payload += payloads
        self._pending_hlen += headers
        self._pending_hdr += [header] * _ELISION_HEAD_RECORDS
        self._flush()
        # Middle records [_ELISION_HEAD_RECORDS, records - 1): one flow segment.
        last = records - 1
        _, mid_payload, mid_headers = burst_range_totals(nbytes, segments, records, _ELISION_HEAD_RECORDS, last)
        self._sim.emit_flow(
            FlowSegment(
                start=start,
                span=span,
                nbytes=nbytes,
                segments=segments,
                records=records,
                first_record=_ELISION_HEAD_RECORDS,
                last_record=last,
                payload_bytes=mid_payload,
                header_bytes=mid_headers,
                header=header,
            )
        )
        # Tail record [records - 1, records): the loop's final iteration.
        tail_boundary = int(round(last * segs_per_record))
        next_boundary = int(round(records * segs_per_record))
        seg_count = max(next_boundary - tail_boundary, 1)
        self._pending_ts.append(start + span * records / records)
        self._pending_payload.append(min(remaining - mid_payload, seg_count * MSS))
        self._pending_hlen.append(TCP_IP_HEADER_BYTES * seg_count)
        self._pending_hdr.append(header)

    def _emit_acks(self, start: float, end: float, nbytes: int, data_direction: PacketDirection) -> None:
        """Queue an aggregated record for the pure ACKs flowing against the data."""
        segments = math.ceil(nbytes / MSS)
        acks = max(1, segments // 2)
        ack_direction = PacketDirection.IN if data_direction is PacketDirection.OUT else PacketDirection.OUT
        self._control(
            end + self.path.rtt / 2, ack_direction, TCPFlags.ACK, "ack-aggregate", TCP_IP_HEADER_BYTES * acks
        )

    def _header(self, direction: PacketDirection, flags: TCPFlags, note: str) -> PacketHeader:
        """The header of ``note``'s packets in ``direction``, built once and then reused.

        Each direction has its own table keyed by note alone: hashing a
        flags or direction member would run ``Enum.__hash__`` in Python.  A
        note seen before with other flags gets a fresh header.
        """
        table = self._headers_out if direction is PacketDirection.OUT else self._headers_in
        header = table.get(note)
        if header is None or header.flags is not flags:
            src, dst, sport, dport = self._addr_out if direction is PacketDirection.OUT else self._addr_in
            header = PacketHeader(
                src, dst, sport, dport, direction, flags, "TCP", self.connection_id, self.remote.hostname, note
            )
            table[note] = header
        return header

    # ------------------------------------------------------------------ #
    # Internal plumbing
    # ------------------------------------------------------------------ #
    def _require_open(self) -> None:
        if self.state is not TCPState.ESTABLISHED:
            raise ConnectionStateError(
                f"connection {self.connection_id} to {self.remote.hostname} is not established"
            )
