"""The measurement testbed (§2).

The paper's testing application drives a test computer remotely: it
writes file batches over FTP into the computer's synced folder, the
application under test synchronizes them, and a sniffer captures every
packet the computer exchanges.  Every metric comes from that capture.
:class:`~repro.testbed.controller.TestbedController` is that whole
setup in one object — simulated network, sniffer, storage backend,
client under test and synced folder — and exposes the operations
experiments are made of.  The FTP transfer's small delay is part of the
start-up metric, as the paper notes in §5.1.
"""
