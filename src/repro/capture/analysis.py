"""Trace analysis: the measurement primitives behind every figure in the paper.

All functions take a :class:`~repro.capture.trace.PacketTrace` (or a filtered
view of one) and return plain numbers or series.  None of them look at
simulator internals — they only use information a real capture would expose
(timestamps, sizes, flags, 5-tuples and server DNS names), which keeps the
methodology faithful to the paper.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, List, Optional, Tuple

from repro.errors import CaptureError
from repro.netsim.packet import PacketDirection, TCPFlags
from repro.capture.trace import PacketTrace

__all__ = [
    "count_tcp_syns",
    "count_tcp_connections",
    "syn_time_series",
    "cumulative_bytes_series",
    "count_application_bursts",
    "burst_payload_sizes",
    "startup_time",
    "completion_time",
    "overhead_fraction",
    "upload_throughput_bps",
]


def count_tcp_syns(trace: PacketTrace, *, outgoing_only: bool = True) -> int:
    """Number of TCP SYN packets in the trace.

    With ``outgoing_only`` (default) only client-initiated SYNs are counted,
    i.e. SYN/ACKs from servers are excluded — this matches counting the
    connections the client opens (Fig. 3).

    Handshake packets are never elided, so this reads the segment-level
    columns: flow-segment rows carry ACK|PSH and simply never match.
    """
    columns = trace.segment_columns()
    syn = TCPFlags.SYN
    ack = TCPFlags.ACK
    out = PacketDirection.OUT
    count = 0
    for flags, direction in zip(columns.flags, columns.directions):
        if not (flags & syn):
            continue
        if flags & ack:
            continue  # SYN/ACK from the server
        if outgoing_only and direction is not out:
            continue
        count += 1
    return count


def count_tcp_connections(trace: PacketTrace) -> int:
    """Number of distinct TCP connections observed (by client SYN)."""
    return count_tcp_syns(trace, outgoing_only=True)


def syn_time_series(trace: PacketTrace, *, relative: bool = True) -> List[Tuple[float, int]]:
    """Cumulative count of client SYN packets over time (Fig. 3's y-axis).

    Returns a list of ``(timestamp, cumulative_syn_count)`` pairs, one per
    SYN.  With ``relative`` timestamps are re-based to the first packet of
    the trace.

    Like :func:`count_tcp_syns` this works on the segment-level columns —
    SYNs are always plain packet rows, so no flow segment ever expands.
    """
    origin = trace.first_timestamp() or 0.0
    columns = trace.segment_columns()
    syn = TCPFlags.SYN
    ack = TCPFlags.ACK
    out = PacketDirection.OUT
    series: List[Tuple[float, int]] = []
    count = 0
    for timestamp, flags, direction in zip(columns.timestamps, columns.flags, columns.directions):
        if (flags & syn) and not (flags & ack) and direction is out:
            count += 1
            series.append((timestamp - origin if relative else timestamp, count))
    return series


def cumulative_bytes_series(
    trace: PacketTrace,
    *,
    interval: float = 10.0,
    duration: Optional[float] = None,
    relative: bool = True,
) -> List[Tuple[float, float]]:
    """Cumulative wire bytes over time, sampled every ``interval`` seconds.

    This is the series plotted in Fig. 1 (background traffic while idle).
    Returns ``(time, cumulative_bytes)`` pairs including a final sample at
    ``duration`` (or at the last packet when ``duration`` is not given).
    """
    if interval <= 0:
        raise CaptureError("interval must be positive")
    origin = trace.first_timestamp() or 0.0
    if not relative:
        origin = 0.0
    columns = trace.sorted_columns()
    timestamps = columns.timestamps
    wire_lens = [headers + payload for headers, payload in zip(columns.headers_lens, columns.payload_lens)]
    count = len(timestamps)
    end = duration if duration is not None else (trace.last_timestamp() or 0.0) - origin
    series: List[Tuple[float, float]] = []
    cumulative = 0.0
    index = 0
    sample_time = 0.0
    while sample_time <= end + 1e-9:
        while index < count and timestamps[index] - origin <= sample_time + 1e-9:
            cumulative += wire_lens[index]
            index += 1
        series.append((sample_time, cumulative))
        sample_time += interval
    if not series or series[-1][0] < end - 1e-9:
        # Close the series exactly at the end of the observation window so
        # the last sample accounts for every captured byte.
        while index < count and timestamps[index] - origin <= end + 1e-9:
            cumulative += wire_lens[index]
            index += 1
        series.append((end, cumulative))
    return series


def count_application_bursts(trace: PacketTrace, *, gap: float = 0.05) -> int:
    """Number of payload bursts separated by idle gaps longer than ``gap``.

    The paper uses burst counting to detect sequential per-file submission
    with application-layer acknowledgements (§4.2): the number of bursts is
    then proportional to the number of files uploaded.
    """
    if gap <= 0:
        raise CaptureError("gap must be positive")
    payload = trace.payload_packets().outgoing()
    if payload.is_empty():
        return 0
    timestamps = payload.sorted_columns().timestamps
    bursts = 1
    previous = timestamps[0]
    for timestamp in islice(timestamps, 1, None):
        if timestamp - previous > gap:
            bursts += 1
        previous = timestamp
    return bursts


def burst_payload_sizes(trace: PacketTrace, *, gap: float = 0.05) -> List[int]:
    """Outbound payload bytes carried by each application burst.

    Together with :func:`count_application_bursts` this reconstructs the
    "pauses during the upload" observation of §4.1: a fixed-size chunker
    produces bursts of identical size (except the last one), a
    content-defined chunker produces visibly varying burst sizes, and a
    client that does not chunk at all produces a single burst.
    """
    if gap <= 0:
        raise CaptureError("gap must be positive")
    payload = trace.payload_packets().outgoing()
    if payload.is_empty():
        return []
    columns = payload.sorted_columns()
    sizes: List[int] = []
    current = 0
    previous = columns.timestamps[0]
    for timestamp, payload_len in zip(columns.timestamps, columns.payload_lens):
        if timestamp - previous > gap and current > 0:
            sizes.append(current)
            current = 0
        current += payload_len
        previous = timestamp
    if current > 0:
        sizes.append(current)
    return sizes


def startup_time(trace: PacketTrace, modification_time: float, storage_hosts: Iterable[str]) -> float:
    """Synchronization start-up time (Fig. 6a).

    Computed from the moment files start being modified
    (``modification_time``) until the first packet of a storage flow is
    observed, as defined in §5.1.  The flow is anchored on its first
    *outgoing payload* packet: trailing acknowledgements of earlier activity
    (which a real capture also records slightly later) must not count as the
    beginning of a storage flow.
    """
    storage = trace.to_hosts(storage_hosts).after(modification_time).outgoing().payload_packets()
    first = storage.first_timestamp()
    if first is None:
        raise CaptureError("no storage flow observed after the modification time")
    return first - modification_time


def completion_time(trace: PacketTrace, storage_hosts: Iterable[str], *, after: Optional[float] = None) -> float:
    """Upload completion time (Fig. 6b).

    Difference between the first and the last packet with payload seen in
    any storage flow (§5.2); TCP tear-down and trailing control messages are
    excluded because they carry no storage payload.
    """
    storage = trace.to_hosts(storage_hosts)
    if after is not None:
        storage = storage.after(after)
    payload = storage.payload_packets()
    first = payload.first_timestamp()
    last = payload.last_timestamp()
    if first is None or last is None:
        raise CaptureError("no storage payload observed in the trace")
    return last - first


def overhead_fraction(trace: PacketTrace, benchmark_bytes: int, *, after: Optional[float] = None) -> float:
    """Protocol overhead (Fig. 6c): total traffic over the benchmark size.

    ``benchmark_bytes`` is the total application data the workload asked the
    service to synchronize; the numerator is every byte (storage plus
    control, both directions, headers included) seen during the experiment.
    """
    if benchmark_bytes <= 0:
        raise CaptureError("benchmark size must be positive")
    window = trace if after is None else trace.after(after)
    return window.total_bytes() / benchmark_bytes


def upload_throughput_bps(trace: PacketTrace, storage_hosts: Iterable[str]) -> float:
    """Average upload rate achieved on storage flows, in bits per second."""
    storage = trace.to_hosts(storage_hosts).payload_packets()
    duration = storage.duration()
    if duration <= 0:
        return 0.0
    return storage.uploaded_payload_bytes() * 8.0 / duration
