"""Discrete-event network simulator.

This package is the substrate that replaces the real Internet paths, TCP/TLS
stacks and traffic capture of the paper's testbed.  It models:

* per-destination network paths (RTT, uplink/downlink rate),
* TCP connections with three-way handshake, slow-start ramp-up and
  ACK-clocked transfer,
* TLS handshakes and record overhead,
* HTTP/HTTPS request/response framing,
* a global simulated clock with scheduled background events (used for the
  clients' polling/keep-alive behaviour).

Every simulated packet is offered to registered sniffers, so the
benchmarking framework can compute all of its metrics from the captured
trace exactly as the paper does, rather than from simulator internals.
"""
