"""Packet records produced by the simulator and consumed by the sniffer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, NamedTuple, Sequence, Tuple

__all__ = [
    "PacketDirection",
    "TCPFlags",
    "Packet",
    "PacketHeader",
    "PacketBatch",
    "FlowSegment",
    "MSS",
    "TCP_IP_HEADER_BYTES",
    "MAX_BURST_RECORDS",
    "burst_record_plan",
    "burst_byte_columns",
    "burst_range_totals",
]

#: Maximum segment size used by the simulated TCP stacks (Ethernet MTU 1500
#: minus 40 bytes of TCP/IP headers).
MSS = 1460

#: Combined IPv4 + TCP header size without options, charged to every packet.
TCP_IP_HEADER_BYTES = 40

#: Cap on the number of data-packet records per transfer burst; larger
#: transfers coalesce several MSS segments into one record while keeping
#: byte accounting exact.  (Historically lived in ``netsim.tcp``; the burst
#: math is shared with flow-segment expansion, so the constant lives here.)
MAX_BURST_RECORDS = 2048


def burst_record_plan(nbytes: int) -> Tuple[int, int]:
    """``(segments, records)`` of the canonical data burst for ``nbytes``.

    ``segments`` is the number of MSS-sized TCP segments the transfer needs;
    ``records`` is how many packet records the burst emits (segments, capped
    at :data:`MAX_BURST_RECORDS` with several segments folded per record).
    """
    segments = -(-nbytes // MSS)
    return segments, min(segments, MAX_BURST_RECORDS)


def burst_byte_columns(nbytes: int, segments: int, records: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Per-record ``(payloads, headers)`` of the canonical data burst for ``nbytes``.

    This is the canonical burst loop.  Record ``index`` carries the MSS
    segments between boundaries ``int(round(index * segments / records))``
    and ``int(round((index + 1) * segments / records))``, at least one, and
    the final record carries whatever remains of ``nbytes``.  Packet-level
    emission and flow-segment expansion both take their byte columns from
    here; ``segments`` and ``records`` are :func:`burst_record_plan`'s.
    """
    segs_per_record = segments / records
    remaining = nbytes
    payloads = []
    headers = []
    boundary = 0
    for index in range(records):
        next_boundary = int(round((index + 1) * segs_per_record))
        seg_count = max(next_boundary - boundary, 1)
        boundary = next_boundary
        payload = min(remaining, seg_count * MSS)
        if payload <= 0:
            break
        remaining -= payload
        payloads.append(payload)
        headers.append(TCP_IP_HEADER_BYTES * seg_count)
    return tuple(payloads), tuple(headers)


def burst_range_totals(nbytes: int, segments: int, records: int, first: int, last: int) -> Tuple[int, int, int]:
    """Closed-form ``(seg_count, payload_bytes, header_bytes)`` of burst records ``[first, last)``.

    The canonical burst loop (:func:`burst_byte_columns`) walks record
    boundaries ``int(round((index + 1) * segments / records))``; those
    telescope, so any contiguous record range's totals follow without the
    loop.  The per-record payload is ``seg_count * MSS`` except for the final
    record, which carries whatever remains of ``nbytes`` — results are
    bit-identical to summing the loop's emissions.
    """
    segs_per_record = segments / records
    b_first = int(round(first * segs_per_record))
    b_last = int(round(last * segs_per_record))
    seg_count = b_last - b_first
    if last >= records:
        payload = nbytes - b_first * MSS
    else:
        payload = seg_count * MSS
    return seg_count, payload, TCP_IP_HEADER_BYTES * seg_count


class PacketDirection(str, enum.Enum):
    """Direction of a packet relative to the test computer."""

    OUT = "out"  # test computer -> cloud
    IN = "in"    # cloud -> test computer


class TCPFlags(enum.Flag):
    """Subset of TCP flags the analysis cares about."""

    NONE = 0
    SYN = enum.auto()
    ACK = enum.auto()
    FIN = enum.auto()
    PSH = enum.auto()
    RST = enum.auto()


@dataclass
class Packet:
    """One simulated packet as seen at the test computer's network interface.

    Attributes
    ----------
    timestamp:
        Simulated capture time in seconds.
    src / dst:
        IP addresses (strings) of the two ends.
    src_port / dst_port:
        TCP ports.
    direction:
        Whether the packet leaves (``OUT``) or enters (``IN``) the test computer.
    flags:
        TCP flags; handshake packets carry ``SYN``.
    payload_len:
        Application payload bytes carried (TLS records count as payload here,
        matching what a real capture sees above TCP).
    headers_len:
        Link/IP/TCP header bytes charged to the packet.
    protocol:
        ``"TCP"`` always; kept for trace realism/filters.
    connection_id:
        Identifier of the simulated connection this packet belongs to.
    hostname:
        Server DNS name the connection was opened to (what the paper obtains
        from DNS/SNI inspection); used to classify control vs. storage flows.
    note:
        Free-form annotation (e.g. ``"tls-handshake"``, ``"http-request"``).
    """

    timestamp: float
    src: str
    dst: str
    src_port: int
    dst_port: int
    direction: PacketDirection
    flags: TCPFlags = TCPFlags.NONE
    payload_len: int = 0
    headers_len: int = TCP_IP_HEADER_BYTES
    protocol: str = "TCP"
    connection_id: int = 0
    hostname: str = ""
    note: str = field(default="", repr=False)

    @property
    def wire_len(self) -> int:
        """Total bytes on the wire (headers + payload)."""
        return self.headers_len + self.payload_len

    @property
    def is_syn(self) -> bool:
        """True for SYN or SYN/ACK packets."""
        return bool(self.flags & TCPFlags.SYN)

    @property
    def has_payload(self) -> bool:
        """True if the packet carries application payload."""
        return self.payload_len > 0

    @property
    def header(self) -> "PacketHeader":
        """The packet's fields other than timestamp, payload and header bytes."""
        return PacketHeader(
            self.src,
            self.dst,
            self.src_port,
            self.dst_port,
            self.direction,
            self.flags,
            self.protocol,
            self.connection_id,
            self.hostname,
            self.note,
        )


class PacketHeader(NamedTuple):
    """The fields every record of one emission burst shares.

    One emission call (a data burst, a handshake packet, an ACK aggregate)
    produces records that differ only in timestamp, payload and header
    bytes; everything else — addresses, ports, direction, flags, protocol,
    connection id, hostname and note — is this one immutable tuple, built
    once per burst and carried by reference from emission through capture
    into :class:`~repro.capture.trace.PacketTrace`'s header column.
    """

    src: str
    dst: str
    src_port: int
    dst_port: int
    direction: PacketDirection
    flags: TCPFlags = TCPFlags.NONE
    protocol: str = "TCP"
    connection_id: int = 0
    hostname: str = ""
    note: str = ""

    def packet(self, timestamp: float, payload_len: int, headers_len: int) -> Packet:
        """The :class:`Packet` record with this header and the given varying fields."""
        return Packet(
            timestamp=timestamp,
            src=self.src,
            dst=self.dst,
            src_port=self.src_port,
            dst_port=self.dst_port,
            direction=self.direction,
            flags=self.flags,
            payload_len=payload_len,
            headers_len=headers_len,
            protocol=self.protocol,
            connection_id=self.connection_id,
            hostname=self.hostname,
            note=self.note,
        )


class PacketBatch:
    """One emission burst: three per-record columns and one shared header.

    A burst emits 1 to 2048 records that differ only in timestamp, payload
    and header bytes; every other field rides once on the burst's
    :class:`PacketHeader`.  Single packets (SYN, FIN, the ACK aggregate)
    leave as one-row batches, so the emission path never constructs
    :class:`Packet` objects — column-aware sniffers append the columns and
    the header directly, and only plain per-packet callbacks pay for
    materialization via :meth:`packets`.
    """

    __slots__ = ("timestamps", "payload_lens", "headers_lens", "header")

    def __init__(
        self,
        timestamps: Sequence[float],
        payload_lens: Sequence[int],
        headers_lens: Sequence[int],
        header: PacketHeader,
    ) -> None:
        if not (len(timestamps) == len(payload_lens) == len(headers_lens)):
            raise ValueError("PacketBatch columns must have equal length")
        self.timestamps = timestamps
        self.payload_lens = payload_lens
        self.headers_lens = headers_lens
        self.header = header

    def __len__(self) -> int:
        return len(self.timestamps)

    def packets(self) -> List[Packet]:
        """Materialize the batch as :class:`Packet` records (slow fallback)."""
        packet = self.header.packet
        return [
            packet(timestamp, payload_len, headers_len)
            for timestamp, payload_len, headers_len in zip(self.timestamps, self.payload_lens, self.headers_lens)
        ]


@dataclass(frozen=True)
class FlowSegment:
    """A flow-level record standing in for an elided run of data packets.

    Steady-state burst records differ only in timestamp and byte counts, and
    both are pure functions of the burst parameters — so instead of 2000+
    packet records the emission fast path ships one segment carrying those
    parameters plus exact aggregate byte totals.  Consumers that only need
    aggregates (byte sums, first/last timestamps, per-host volumes) read the
    segment directly; per-packet consumers call :meth:`expand_columns`,
    which reruns the canonical burst loop and is bit-identical to the eager
    per-record emission it elides.

    ``first_record``/``last_record`` delimit the elided half-open record
    range of the burst; trace window filters narrow segments with
    :meth:`subrange` instead of materializing packets.  Every elided record
    shares the burst's :class:`PacketHeader`, which the segment carries by
    reference.
    """

    #: Burst start time and time span (``max(end - start, 0)``).
    start: float
    span: float
    #: Payload bytes, MSS segments and packet records of the *whole* burst.
    nbytes: int
    segments: int
    records: int
    #: Half-open record range ``[first_record, last_record)`` this segment elides.
    first_record: int
    last_record: int
    #: Exact aggregate byte totals of the elided range.
    payload_bytes: int
    header_bytes: int
    #: The fields every record of the burst shares.
    header: PacketHeader

    @property
    def record_count(self) -> int:
        """Number of packet records this segment stands for."""
        return self.last_record - self.first_record

    def record_timestamp(self, index: int) -> float:
        """Capture timestamp of burst record ``index`` (the loop's expression)."""
        return self.start + self.span * (index + 1) / self.records

    @property
    def first_timestamp(self) -> float:
        """Timestamp of the segment's first elided record."""
        return self.record_timestamp(self.first_record)

    @property
    def last_timestamp(self) -> float:
        """Timestamp of the segment's last elided record."""
        return self.record_timestamp(self.last_record - 1)

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire (headers + payload) across the range."""
        return self.payload_bytes + self.header_bytes

    def subrange(self, first: int, last: int) -> "FlowSegment":
        """The sub-segment covering records ``[first, last)`` of the burst."""
        _, payload, headers = burst_range_totals(self.nbytes, self.segments, self.records, first, last)
        return FlowSegment(
            start=self.start,
            span=self.span,
            nbytes=self.nbytes,
            segments=self.segments,
            records=self.records,
            first_record=first,
            last_record=last,
            payload_bytes=payload,
            header_bytes=headers,
            header=self.header,
        )

    def expand_columns(self) -> Tuple[List[float], List[int], List[int]]:
        """Materialize ``(timestamps, payload_lens, headers_lens)`` of the range.

        Reruns the canonical burst loop (:func:`burst_byte_columns`) over the
        whole burst and keeps the elided records, so every float and byte
        count is identical to what the eager per-record emission would have
        produced.
        """
        payloads, headers = burst_byte_columns(self.nbytes, self.segments, self.records)
        first, last = self.first_record, min(self.last_record, len(payloads))
        start, span, records = self.start, self.span, self.records
        timestamps = [start + span * (index + 1) / records for index in range(first, last)]
        return timestamps, list(payloads[first:last]), list(headers[first:last])

    def batch(self) -> PacketBatch:
        """Materialize the elided range as a :class:`PacketBatch`."""
        timestamps, payloads, headers = self.expand_columns()
        return PacketBatch(timestamps, payloads, headers, self.header)

    def packets(self) -> List[Packet]:
        """Materialize the elided range as :class:`Packet` records."""
        return self.batch().packets()
