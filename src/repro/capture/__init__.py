"""Traffic capture and trace analysis.

This package plays the role of tcpdump/libpcap plus the paper's
post-processing scripts: a :class:`Sniffer` records every simulated packet
into a :class:`PacketTrace`, and the analysis functions compute exactly the
quantities the paper reports — TCP SYN counts and time series (Fig. 3),
cumulative background traffic (Fig. 1), upload volumes (Figs. 4 and 5),
synchronization start-up time, completion time and protocol overhead
(Fig. 6).
"""

from repro.capture.trace import PacketTrace
from repro.capture.sniffer import Sniffer
from repro.capture.analysis import (
    burst_payload_sizes,
    classify_hosts,
    completion_time,
    count_application_bursts,
    count_tcp_connections,
    count_tcp_syns,
    cumulative_bytes_series,
    overhead_fraction,
    startup_time,
    syn_time_series,
    upload_throughput_bps,
)

__all__ = [
    "PacketTrace",
    "Sniffer",
    "burst_payload_sizes",
    "classify_hosts",
    "completion_time",
    "count_application_bursts",
    "count_tcp_connections",
    "count_tcp_syns",
    "cumulative_bytes_series",
    "overhead_fraction",
    "startup_time",
    "syn_time_series",
    "upload_throughput_bps",
]
