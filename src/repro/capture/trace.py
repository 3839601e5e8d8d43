"""Packet traces: ordered collections of captured packets with filtering.

The trace is stored *columnar* (struct-of-arrays) in six parallel lists,
kept in capture order and lazily re-ordered by timestamp when a
time-sensitive accessor needs it: timestamp, payload bytes, header bytes,
the shared :class:`~repro.netsim.packet.PacketHeader` (addresses, ports,
direction, flags, protocol, connection id, hostname and note), flow
segment and capture ordinal.  Every record of one emission burst refers
to the same header tuple, so appending a burst, filtering, sorting and
windowing each touch six lists, never one per packet field.

The public API is unchanged from the row-oriented original — ``packets``,
``__iter__`` and ``__getitem__`` materialize
:class:`~repro.netsim.packet.Packet` views on demand (and cache them),
while filters and aggregates work directly on the columns:

* ``between``/``after`` bisect the sorted timestamp column and copy runs of
  rows by slice instead of scanning every packet;
* ``for_connection``/``to_hosts`` use lazily built per-connection and
  per-hostname index maps read off the header column;
* byte/payload totals are column sums that never build a ``Packet``.

Sniffers append a connection operation's packets at once via
:meth:`extend_batch`, which extends each column with one C-level call.
:class:`TraceColumns`, the thirteen-list view :mod:`repro.capture.analysis`
reads, is built from the header column when asked for.

Flow segments
-------------

Elided bulk transfers arrive via :meth:`extend_flow` as
:class:`~repro.netsim.packet.FlowSegment` records.  A segment occupies a
*single row* of the columns — its timestamp is the first elided record's,
its payload/header cells hold the exact aggregate totals of the whole
range — plus an entry in the parallel ``_seg`` column.  Row-preserving
filters (``to_hosts``, ``for_connection``, ``outgoing`` …) and byte
aggregates therefore work on elided traces without ever expanding them;
window filters (``between``/``after``) narrow straddling segments with
:meth:`FlowSegment.subrange` and stay elided too.

Per-packet accessors (``packets``, iteration,
``sorted_columns``) call :meth:`_materialize`, which expands every
segment with the canonical burst loop and re-sorts by ``(timestamp,
capture ordinal)``.  Each row carries a capture ordinal; a segment row
reserves one ordinal per elided record, so the materialized order is
provably identical to what eager per-record emission would have captured
— bit-exact timestamps, sizes and addresses (see
``tests/test_properties.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import compress, islice, repeat
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.netsim.packet import FlowSegment, Packet, PacketBatch, PacketDirection, PacketHeader

__all__ = ["PacketTrace", "TraceColumns"]

_CONNECTION_ID = attrgetter("connection_id")
_HOSTNAME = attrgetter("hostname")


class TraceColumns(NamedTuple):
    """Read-only struct-of-arrays view of a trace, sorted by timestamp.

    The analysis fast paths iterate these parallel lists instead of
    materialized :class:`Packet` objects.  Callers must not mutate them.
    """

    timestamps: List[float]
    sources: List[str]
    destinations: List[str]
    source_ports: List[int]
    destination_ports: List[int]
    directions: List[PacketDirection]
    flags: List[object]
    payload_lens: List[int]
    headers_lens: List[int]
    protocols: List[str]
    connection_ids: List[int]
    hostnames: List[str]
    notes: List[str]


def _first_record_at_or_after(segment: FlowSegment, timestamp: float) -> int:
    """Smallest elided record index whose timestamp is ``>= timestamp``."""
    lo, hi = segment.first_record, segment.last_record
    while lo < hi:
        mid = (lo + hi) // 2
        if segment.record_timestamp(mid) < timestamp:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _first_record_after(segment: FlowSegment, timestamp: float) -> int:
    """Smallest elided record index whose timestamp is ``> timestamp``."""
    lo, hi = segment.first_record, segment.last_record
    while lo < hi:
        mid = (lo + hi) // 2
        if segment.record_timestamp(mid) <= timestamp:
            lo = mid + 1
        else:
            hi = mid
    return lo


#: The six columns of a trace, in the order :meth:`PacketTrace._columns` lists them.
_Columns = Tuple[List[float], List[int], List[int], List[PacketHeader], List[Optional[FlowSegment]], List[int]]


class PacketTrace:
    """An append-only, time-ordered view over captured packets.

    Packets are appended by the sniffer in emission order; because background
    events and asynchronous FIN packets may be stamped slightly out of order,
    accessors sort lazily by timestamp when needed.  The sort is stable:
    packets sharing a timestamp keep their capture order, exactly like the
    row-oriented implementation this replaces.  Capture order is tracked
    explicitly per row as an *ordinal* so that lazily expanded flow segments
    sort into exactly the position their eager packets would have occupied.
    """

    __slots__ = (
        "_ts",
        "_payload",
        "_hlen",
        "_hdr",
        "_seg",
        "_ord",
        "_segn",
        "_seg_extra",
        "_next_ord",
        "_sorted",
        "_views",
        "_conn_index",
        "_host_index",
    )

    def __init__(self, packets: Optional[Iterable[Packet]] = None) -> None:
        self._ts: List[float] = []
        #: Payload and header (link/IP/TCP) bytes of each row.
        self._payload: List[int] = []
        self._hlen: List[int] = []
        #: The :class:`PacketHeader` of each row, shared by every row of a burst.
        self._hdr: List[PacketHeader] = []
        #: Parallel column of elided flow segments (``None`` for plain rows).
        self._seg: List[Optional[FlowSegment]] = []
        #: Capture ordinal of each row; segment rows reserve one ordinal per
        #: elided record so expansion can restore the eager capture order.
        self._ord: List[int] = []
        self._segn = 0
        self._seg_extra = 0
        self._next_ord = 0
        self._sorted = True
        self._views: Optional[List[Packet]] = None
        self._conn_index: Optional[Dict[int, List[int]]] = None
        self._host_index: Optional[Dict[str, List[int]]] = None
        if packets is not None:
            self.extend(packets)

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def append(self, packet: Packet) -> None:
        """Add one packet to the trace."""
        if self._sorted and self._ts and packet.timestamp < self._ts[-1]:
            self._sorted = False
        self._ts.append(packet.timestamp)
        self._payload.append(packet.payload_len)
        self._hlen.append(packet.headers_len)
        self._hdr.append(packet.header)
        self._seg.append(None)
        self._ord.append(self._next_ord)
        self._next_ord += 1
        self._invalidate()

    def extend(self, packets: Iterable[Packet]) -> None:
        """Add several packets to the trace."""
        for packet in packets:
            self.append(packet)

    def extend_batch(self, batch: PacketBatch) -> None:
        """Append a column-oriented batch of packets without building packets."""
        timestamps = batch.timestamps
        count = len(timestamps)
        if count == 0:
            return
        ts = self._ts
        if self._sorted:
            if ts and timestamps[0] < ts[-1]:
                self._sorted = False
            else:
                self._sorted = all(
                    earlier <= later for earlier, later in zip(timestamps, islice(timestamps, 1, None))
                )
        ts += timestamps
        self._payload += batch.payload_lens
        self._hlen += batch.headers_lens
        self._hdr += batch.headers
        self._seg += [None] * count
        ordinal = self._next_ord
        self._next_ord = ordinal + count
        self._ord += range(ordinal, ordinal + count)
        self._views = self._conn_index = self._host_index = None

    def extend_flow(self, segment: FlowSegment) -> None:
        """Append an elided bulk-transfer segment as a single trace row.

        The row's timestamp is the segment's first elided record's; the
        payload/header cells hold the exact aggregate byte totals of the
        whole elided range, so byte sums over the columns stay exact without
        expansion.  The segment reserves one capture ordinal per elided
        record, preserving the eager capture order for later expansion.
        """
        count = segment.record_count
        if count == 0:
            return
        if self._sorted and self._ts and segment.first_timestamp < self._ts[-1]:
            self._sorted = False
        self._append_segment(segment, self._next_ord)
        self._next_ord += count
        self._invalidate()

    def __len__(self) -> int:
        """Logical packet count (elided segments count every record)."""
        return len(self._ts) + self._seg_extra

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def __getitem__(self, index):
        return self.packets[index]

    @property
    def packets(self) -> Sequence[Packet]:
        """Packets sorted by capture timestamp (lazily materialized views)."""
        if self._views is None:
            self._materialize()
            self._ensure_sorted()
            self._views = [
                header.packet(timestamp, payload, headers)
                for timestamp, payload, headers, header in zip(self._ts, self._payload, self._hlen, self._hdr)
            ]
        return self._views

    def is_empty(self) -> bool:
        """True when no packets were captured."""
        return not self._ts

    def has_segments(self) -> bool:
        """True while the trace still holds unexpanded flow segments."""
        return self._segn > 0

    # ------------------------------------------------------------------ #
    # Columnar internals
    # ------------------------------------------------------------------ #
    def _columns(self) -> _Columns:
        return self._ts, self._payload, self._hlen, self._hdr, self._seg, self._ord

    def _assign(self, columns: Sequence[list]) -> None:
        """Replace this trace's six columns (same rows, new order or expansion)."""
        self._ts, self._payload, self._hlen, self._hdr, self._seg, self._ord = columns
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop the caches derived from the columns."""
        self._views = None
        self._conn_index = None
        self._host_index = None

    def _tally(self, segments: Iterable[Optional[FlowSegment]]) -> None:
        """Add the flow segments among ``segments`` to this trace's counts."""
        # ``filter(None, ...)`` skips the ``None`` cells of plain rows.
        for segment in filter(None, segments):
            self._segn += 1
            self._seg_extra += segment.record_count - 1

    def _segment_rows(self) -> List[int]:
        """Positions of the flow-segment rows, ascending."""
        # Segments are truthy and the ``None`` cells of plain rows are not.
        return list(compress(range(len(self._seg)), self._seg))

    def _materialize(self) -> None:
        """Expand every flow segment into plain packet rows, in eager order.

        Expansion reruns the canonical burst loop per segment (bit-identical
        floats and byte counts) and sorts all rows by ``(timestamp, capture
        ordinal)`` — exactly the stable-by-timestamp order the eager
        per-record emission would have produced.  Plain rows between
        segments are copied by slice.
        """
        if self._segn == 0:
            return
        ts: List[float] = []
        payload: List[int] = []
        hlen: List[int] = []
        hdr: List[PacketHeader] = []
        ords: List[int] = []
        rows = len(self._ts)
        run = 0
        for pos in self._segment_rows() + [rows]:
            ts += self._ts[run:pos]
            payload += self._payload[run:pos]
            hlen += self._hlen[run:pos]
            hdr += self._hdr[run:pos]
            ords += self._ord[run:pos]
            run = pos + 1
            if pos == rows:
                break
            segment = self._seg[pos]
            seg_ts, seg_payload, seg_hlen = segment.expand_columns()
            count = len(seg_ts)
            ts += seg_ts
            payload += seg_payload
            hlen += seg_hlen
            hdr += repeat(segment.header, count)
            base = self._ord[pos]
            ords += range(base, base + count)
        self._assign((ts, payload, hlen, hdr, [None] * len(ts), ords))
        self._segn = 0
        self._seg_extra = 0
        self._sorted = False
        self._ensure_sorted()

    def _ensure_sorted(self) -> None:
        """Order the rows by (timestamp, capture ordinal).

        Two stable key sorts, by ordinal and then by timestamp, give that
        order without building a tuple per row.  A fresh capture holds its
        rows in ordinal order already and skips the first; windows over a
        trace with segments (straddlers first) do not.
        """
        if self._sorted:
            return
        ts = self._ts
        ordinals = self._ord
        order = list(range(len(ts)))
        if sorted(ordinals) != ordinals:
            order.sort(key=ordinals.__getitem__)
        order.sort(key=ts.__getitem__)
        self._assign([list(map(column.__getitem__, order)) for column in self._columns()])
        self._sorted = True

    def _trace_columns(self) -> TraceColumns:
        """The current rows as :class:`TraceColumns`, header fields unpacked."""
        fields = [list(field) for field in zip(*self._hdr)] or [[] for _ in PacketHeader._fields]
        src, dst, sport, dport, direction, flags, protocol, connection_id, hostname, note = fields
        return TraceColumns(
            self._ts,
            src,
            dst,
            sport,
            dport,
            direction,
            flags,
            self._payload,
            self._hlen,
            protocol,
            connection_id,
            hostname,
            note,
        )

    def sorted_columns(self) -> TraceColumns:
        """The trace as parallel per-packet columns, sorted by timestamp.

        Forces flow-segment expansion: every elided record becomes its own
        row, exactly as eager emission would have captured it.
        """
        self._materialize()
        self._ensure_sorted()
        return self._trace_columns()

    def segment_columns(self) -> TraceColumns:
        """The trace rows as columns *without* expanding flow segments.

        Elided segments appear as one row each: the timestamp is the first
        elided record's and the payload/header cells are the exact aggregate
        totals of the range.  Aggregate analyses (flag counts, per-host byte
        sums, SYN series) read these columns so the default campaign never
        materializes bulk packets.  Per-packet fields of an elided row
        describe the range, not an individual packet — use
        :meth:`sorted_columns` when record granularity matters.
        """
        self._ensure_sorted()
        return self._trace_columns()

    def _derived(self, columns: Sequence[list]) -> "PacketTrace":
        """A new sorted trace over ``columns``, sharing this trace's ordinal horizon."""
        trace = PacketTrace.__new__(PacketTrace)
        trace._assign(columns)
        trace._segn = 0
        trace._seg_extra = 0
        if self._segn:
            trace._tally(trace._seg)
        trace._next_ord = self._next_ord
        trace._sorted = True
        return trace

    def _blank(self) -> "PacketTrace":
        """A new empty trace sharing this trace's ordinal horizon."""
        return self._derived([[] for _ in range(6)])

    def _slice(self, lo: int, hi: int) -> "PacketTrace":
        """A new trace from a contiguous range of the sorted columns."""
        return self._derived([column[lo:hi] for column in self._columns()])

    def _select(self, indices: Sequence[int]) -> "PacketTrace":
        """A new trace from ascending positions of the sorted columns."""
        count = len(indices)
        if count == 0:
            return self._slice(0, 0)
        lo = indices[0]
        hi = indices[count - 1]
        if hi - lo + 1 == count:
            # Ascending with no gaps: a contiguous run (e.g. a connection
            # whose packets were not interleaved) — slice at C speed.
            return self._slice(lo, hi + 1)
        return self._derived([list(map(column.__getitem__, indices)) for column in self._columns()])

    def _extend_rows(self, source: "PacketTrace", lo: int, hi: int) -> None:
        """Append rows ``[lo, hi)`` of ``source`` unchanged, one slice per column."""
        for column, source_column in zip(self._columns(), source._columns()):
            column += source_column[lo:hi]
        if source._segn:
            self._tally(source._seg[lo:hi])

    def _append_segment(self, segment: FlowSegment, ordinal: int) -> None:
        """Append ``segment`` as one elided row with capture ordinal ``ordinal``."""
        self._ts.append(segment.first_timestamp)
        self._payload.append(segment.payload_bytes)
        self._hlen.append(segment.header_bytes)
        self._hdr.append(segment.header)
        self._seg.append(segment)
        self._ord.append(ordinal)
        self._tally((segment,))

    def _connection_index(self) -> Dict[int, List[int]]:
        if self._conn_index is None:
            self._ensure_sorted()
            index: Dict[int, List[int]] = {}
            for position, connection_id in enumerate(map(_CONNECTION_ID, self._hdr)):
                bucket = index.get(connection_id)
                if bucket is None:
                    index[connection_id] = [position]
                else:
                    bucket.append(position)
            self._conn_index = index
        return self._conn_index

    def _hostname_index(self) -> Dict[str, List[int]]:
        if self._host_index is None:
            self._ensure_sorted()
            index: Dict[str, List[int]] = {}
            for position, hostname in enumerate(map(_HOSTNAME, self._hdr)):
                bucket = index.get(hostname)
                if bucket is None:
                    index[hostname] = [position]
                else:
                    bucket.append(position)
            self._host_index = index
        return self._host_index

    # ------------------------------------------------------------------ #
    # Filtering
    # ------------------------------------------------------------------ #
    def _window(self, start: float, end: float) -> "PacketTrace":
        """Rows whose packets fall in ``[start, end]``, segments preserved.

        Bisection finds the plain rows in the window; only the segment rows
        are visited one by one.  A segment row's column timestamp is its
        *first* record's, so bisection misses segments that start before the
        window but extend into it; those straddlers (and in-window segments
        reaching past the end) are narrowed with :meth:`FlowSegment.subrange`
        — still elided, with ordinals shifted so later expansion keeps the
        eager order.  The runs of rows between them are copied by slice.
        """
        self._ensure_sorted()
        lo = bisect_left(self._ts, start)
        hi = bisect_right(self._ts, end)
        if self._segn == 0:
            return self._slice(lo, hi)
        segments = self._seg
        ordinals = self._ord
        rows = self._segment_rows()
        inside = bisect_left(rows, lo)
        trace = self._blank()
        for pos in rows[:inside]:
            segment = segments[pos]
            if segment.last_timestamp < start:
                continue
            first = _first_record_at_or_after(segment, start)
            last = _first_record_after(segment, end)
            if last <= first:
                continue
            shift = first - segment.first_record
            trace._append_segment(segment.subrange(first, last), ordinals[pos] + shift)
        # Straddlers come first but may start after in-window rows.
        trace._sorted = trace.is_empty()
        run = lo
        for pos in rows[inside:bisect_left(rows, hi)]:
            segment = segments[pos]
            if segment.last_timestamp <= end:
                continue  # whole: copied with its run
            trace._extend_rows(self, run, pos)
            run = pos + 1
            last = _first_record_after(segment, end)
            if last > segment.first_record:
                trace._append_segment(segment.subrange(segment.first_record, last), ordinals[pos])
        trace._extend_rows(self, run, hi)
        return trace

    def between(self, start: float, end: float) -> "PacketTrace":
        """Packets with ``start <= timestamp <= end``."""
        return self._window(start, end)

    def after(self, timestamp: float) -> "PacketTrace":
        """Packets captured at or after ``timestamp``."""
        if self._segn == 0:
            self._ensure_sorted()
            return self._slice(bisect_left(self._ts, timestamp), len(self._ts))
        return self._window(timestamp, math.inf)

    def to_hosts(self, hostnames: Iterable[str]) -> "PacketTrace":
        """Packets exchanged with any of the given server DNS names."""
        index = self._hostname_index()
        wanted = set(hostnames)
        buckets = [index[hostname] for hostname in wanted if hostname in index]
        if not buckets:
            return self._slice(0, 0)
        if len(buckets) == 1:
            return self._select(buckets[0])
        merged: List[int] = []
        for bucket in buckets:
            merged.extend(bucket)
        merged.sort()
        return self._select(merged)

    def for_connection(self, connection_id: int) -> "PacketTrace":
        """Packets belonging to one simulated connection."""
        positions = self._connection_index().get(connection_id)
        if positions is None:
            return self._slice(0, 0)
        return self._select(positions)

    def payload_packets(self) -> "PacketTrace":
        """Packets carrying application payload."""
        self._ensure_sorted()
        return self._select([index for index, payload in enumerate(self._payload) if payload > 0])

    def outgoing(self) -> "PacketTrace":
        """Packets leaving the test computer."""
        self._ensure_sorted()
        out = PacketDirection.OUT
        return self._select([index for index, header in enumerate(self._hdr) if header.direction is out])

    def incoming(self) -> "PacketTrace":
        """Packets entering the test computer."""
        self._ensure_sorted()
        out = PacketDirection.OUT
        return self._select([index for index, header in enumerate(self._hdr) if header.direction is not out])

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def total_bytes(self) -> int:
        """Total bytes on the wire (headers + payload), both directions."""
        return sum(self._hlen) + sum(self._payload)

    def payload_bytes(self) -> int:
        """Total application payload bytes, both directions."""
        return sum(self._payload)

    def uploaded_payload_bytes(self) -> int:
        """Application payload bytes leaving the test computer."""
        out = PacketDirection.OUT
        return sum(payload for payload, header in zip(self._payload, self._hdr) if header.direction is out)

    def downloaded_payload_bytes(self) -> int:
        """Application payload bytes entering the test computer."""
        out = PacketDirection.OUT
        return sum(payload for payload, header in zip(self._payload, self._hdr) if header.direction is not out)

    def first_timestamp(self) -> Optional[float]:
        """Timestamp of the first packet, or ``None`` for an empty trace."""
        if not self._ts:
            return None
        return self._ts[0] if self._sorted else min(self._ts)

    def last_timestamp(self) -> Optional[float]:
        """Timestamp of the last packet, or ``None`` for an empty trace."""
        if not self._ts:
            return None
        last = self._ts[-1] if self._sorted else max(self._ts)
        if self._segn:
            for segment in filter(None, self._seg):
                end = segment.last_timestamp
                if end > last:
                    last = end
        return last

    def duration(self) -> float:
        """Elapsed time between the first and last packet (0 for empty traces)."""
        if not self._ts:
            return 0.0
        last = self.last_timestamp()
        first = self.first_timestamp()
        assert last is not None and first is not None
        return last - first
