"""Traffic capture and trace analysis.

This package plays the role of tcpdump/libpcap plus the paper's
post-processing scripts: a :class:`~repro.capture.sniffer.Sniffer` records
every simulated packet into a :class:`~repro.capture.trace.PacketTrace`, and
the functions of :mod:`repro.capture.analysis` compute exactly the
quantities the paper reports — TCP SYN counts and time series (Fig. 3),
cumulative background traffic (Fig. 1), upload volumes (Figs. 4 and 5),
synchronization start-up time, completion time and protocol overhead
(Fig. 6).
"""
